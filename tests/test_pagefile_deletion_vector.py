"""Tests for deletion vectors and merge-on-read."""

import dataclasses
import struct
import zlib

import numpy as np
import pytest

from repro import Warehouse
from repro.common.errors import FileFormatError
from repro.engine.expressions import BinOp, Col, Lit
from repro.fe.write_path import _load_dv
from repro.pagefile import DeletionVector, PageFileReader, Schema, write_page_file


class TestDeletionVector:
    def test_empty(self):
        dv = DeletionVector()
        assert dv.cardinality == 0
        assert not dv.contains(0)

    def test_positions_sorted_and_deduped(self):
        dv = DeletionVector([5, 1, 5, 3])
        assert list(dv.positions) == [1, 3, 5]
        assert dv.cardinality == 3

    def test_negative_positions_rejected(self):
        with pytest.raises(ValueError):
            DeletionVector([-1])

    def test_contains(self):
        dv = DeletionVector([2, 4])
        assert dv.contains(2)
        assert not dv.contains(3)
        assert not dv.contains(100)

    def test_positions_in_range(self):
        dv = DeletionVector([1, 5, 9, 15])
        np.testing.assert_array_equal(dv.positions_in_range(4, 10), [5, 9])
        assert len(dv.positions_in_range(20, 30)) == 0

    def test_union(self):
        merged = DeletionVector([1, 2]).union(DeletionVector([2, 3]))
        assert list(merged.positions) == [1, 2, 3]

    def test_union_with_empty(self):
        dv = DeletionVector([7])
        assert dv.union(DeletionVector()) == dv

    def test_serialization_roundtrip(self):
        dv = DeletionVector([0, 10, 100, 100000])
        assert DeletionVector.from_bytes(dv.to_bytes()) == dv

    def test_empty_roundtrip(self):
        dv = DeletionVector()
        assert DeletionVector.from_bytes(dv.to_bytes()) == dv

    def test_bad_magic(self):
        with pytest.raises(FileFormatError):
            DeletionVector.from_bytes(b"XXXXxxxx")

    @pytest.mark.parametrize(
        "body,match",
        [
            (zlib.compress(b"abc"), "3 payload bytes are not whole uint32"),
            (b"not a zlib stream", "corrupt payload"),
        ],
    )
    def test_malformed_payload_is_a_format_error(self, body, match):
        with pytest.raises(FileFormatError, match=match):
            DeletionVector.from_bytes(b"RDV1" + struct.pack("<I", 1) + body)

    @pytest.mark.parametrize(
        "mangle, match",
        [
            (lambda data: data + b"JUNK", "4 bytes after the zlib stream"),
            (lambda data: data[:-2], "truncated zlib stream"),
        ],
        ids=["trailing-bytes", "truncated"],
    )
    def test_payload_must_be_exactly_one_zlib_stream(self, mangle, match):
        data = DeletionVector([3, 7, 4000]).to_bytes()
        with pytest.raises(FileFormatError, match=match):
            DeletionVector.from_bytes(mangle(data))

    def test_equality(self):
        assert DeletionVector([1, 2]) == DeletionVector([2, 1])
        assert DeletionVector([1]) != DeletionVector([2])

    def test_iteration(self):
        assert list(DeletionVector([3, 1])) == [1, 3]


def test_dv_load_names_the_blob():
    dw = Warehouse(auto_optimize=False)
    session = dw.session()
    session.create_table("t", Schema.of(("k", "int64")))
    session.insert("t", {"k": np.arange(10, dtype=np.int64)})
    session.delete("t", BinOp("<", Col("k"), Lit(3)))
    info = next(iter(session.table_snapshot("t").dvs.values()))
    # Self-consistent metadata, no manifest checksum: only the parser can tell.
    dw.store.put(info.path, b"RDV1" + struct.pack("<I", 1) + b"junk", overwrite=True)
    with pytest.raises(FileFormatError, match=f"^{info.path}: deletion vector"):
        _load_dv(dw.context, dataclasses.replace(info, checksum=""))


class TestMergeOnRead:
    def setup_method(self):
        self.schema = Schema.of(("id", "int64"))
        self.data = write_page_file(
            self.schema, {"id": np.arange(20, dtype=np.int64)}, row_group_size=5
        )

    def test_deleted_rows_filtered(self):
        reader = PageFileReader(self.data)
        out = reader.read(deletion_vector=DeletionVector([0, 10, 19]))
        assert len(out["id"]) == 17
        assert 0 not in out["id"] and 10 not in out["id"] and 19 not in out["id"]

    def test_positions_survive_filtering(self):
        reader = PageFileReader(self.data)
        out = reader.read(deletion_vector=DeletionVector([3]), with_positions=True)
        np.testing.assert_array_equal(out["id"], out["__pos__"])

    def test_whole_row_group_deleted(self):
        reader = PageFileReader(self.data)
        out = reader.read(deletion_vector=DeletionVector(range(5)))
        assert len(out["id"]) == 15
        assert out["id"].min() == 5

    def test_all_rows_deleted(self):
        reader = PageFileReader(self.data)
        out = reader.read(deletion_vector=DeletionVector(range(20)))
        assert len(out["id"]) == 0

    def test_live_row_count(self):
        reader = PageFileReader(self.data)
        assert reader.live_row_count(None) == 20
        assert reader.live_row_count(DeletionVector([1, 2])) == 18
