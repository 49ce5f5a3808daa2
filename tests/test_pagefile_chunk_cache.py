"""The chunk cache of decompressed chunks and parsed footers: its
bookkeeping, and the rule it lives by.

The rule (DESIGN.md, "The chunk cache"): **a hit skips inflating, and
for a DEC chunk the division, and nothing else** — the zlib inflate and
the DEC decode for a chunk, ``_parse_footer`` for a footer.
``store.get`` and both checksum verifications run on every open, and
the magic, trailer and footer crc32 are checked on every reader, so a
warm cache can mask no fault, no quarantine, no GC deletion and no
malformed footer, and a query costs the same fetches, bytes and simulated
seconds warm, cold or with a zero budget.
"""

import dataclasses
import struct
import tracemalloc
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PolarisConfig, Schema, Warehouse
from repro.chaos.recovery import RecoveryManager
from repro.common.errors import BlobNotFoundError, FileFormatError, IntegrityError
from repro.engine.expressions import BinOp, Col, Lit
from repro.engine.planner import TableScan
from repro.fe.write_path import _load_dv, _open_data_file
from repro.pagefile import encoding, file_format
from repro.pagefile.cache import (
    BUDGET_BYTES,
    ENTRY_OVERHEAD_BYTES,
    ChunkCache,
    entry_cost,
)
from repro.pagefile.file_format import PageFile, read_footer, write_page_file
from repro.pagefile.reader import PageFileReader
from repro.storage import integrity
from repro.storage.integrity import CHECKSUM_KEY
from repro.telemetry.metrics import MetricsRegistry
from tests.conftest import small_config
from tests.test_pagefile_format import _FOOTER_HEADER, _layout_at, _reseal, _set_layout

KIB = ENTRY_OVERHEAD_BYTES


def _cache(budget_bytes: int = BUDGET_BYTES) -> ChunkCache:
    return ChunkCache(MetricsRegistry(), budget_bytes)


def _page_file(columns: int, rows: int, group: int = 4) -> bytes:
    schema = Schema.of(*[(f"column_{c}", "int64") for c in range(columns)])
    values = np.arange(rows, dtype=np.int64) * 100_003
    return write_page_file(
        schema, {name: values for name in schema.names}, row_group_size=group
    )


#: Parsed footers of several shapes, for the bookkeeping tests.
FOOTERS = [
    read_footer(_page_file(columns, rows), source=f"p/{columns}x{rows}.rpf")
    for columns, rows in ((1, 1), (3, 10), (15, 4), (6, 60))
]


def _footers(cache: ChunkCache):
    return [entry for entry in cache._entries.values() if isinstance(entry, PageFile)]


class TestDecimalChunks:
    """A DEC chunk is decoded once per miss and cached in RAW form."""

    PATH = "p/decimal.rpf"

    @pytest.fixture
    def decimal_file(self):
        values = np.round(np.random.default_rng(7).uniform(-1e4, 1e4, 500), 2)
        data = write_page_file(Schema.of(("x", "float64")), {"x": values})
        meta = read_footer(data)
        chunk = data[meta.offsets[0] : meta.offsets[0] + meta.lengths[0]]
        assert zlib.decompress(chunk)[0] == encoding.DEC
        return data, meta, values

    @pytest.fixture
    def dec_decodes(self, monkeypatch):
        """How often the DEC decoder runs."""
        calls = []
        decoder, types = encoding._DECODERS[encoding.DEC]

        def counting(*args):
            calls.append(args[2])
            return decoder(*args)

        monkeypatch.setitem(encoding._DECODERS, encoding.DEC, (counting, types))
        return calls

    def test_cold_and_warm_reads_return_the_same_bits(self, decimal_file, dec_decodes):
        data, meta, values = decimal_file
        cache = _cache()
        cold = PageFileReader(data, self.PATH, cache, 1).read()["x"]
        assert dec_decodes == [len(values)]
        warm = PageFileReader(data, self.PATH, cache, 1).read()["x"]
        assert dec_decodes == [len(values)], "a hit must not divide again"
        assert cache.hits.value == 2  # the footer and the chunk
        assert cold.tobytes() == warm.tobytes() == values.tobytes()
        cold[:] = np.nan
        again = PageFileReader(data, self.PATH, cache, 1).read()["x"]
        assert again.tobytes() == values.tobytes()

    def test_the_entry_is_the_raw_payload_at_the_raw_cost(self, decimal_file):
        data, meta, values = decimal_file
        cache = _cache()
        PageFileReader(data, self.PATH, cache, 1).read()
        entry = cache._entries[(self.PATH, 1, meta.offsets[0])]
        assert entry == bytes([encoding.RAW]) + values.tobytes()
        # What the same values cached as a RAW chunk have always cost.
        assert entry_cost(entry) == 1 + values.nbytes + ENTRY_OVERHEAD_BYTES
        assert len(cache) == 2  # the chunk and the footer


class TestBookkeeping:
    def test_hit_miss_and_lru_eviction(self):
        cache = _cache(3 * (100 + KIB))
        for offset in (1, 2, 3):
            cache.put(("p", 1, offset), bytes(100))
        assert cache.get(("p", 1, 1)) == bytes(100)  # 1 is now most recent
        cache.put(("p", 1, 4), bytes(100))  # evicts 2, the least recent
        assert cache.get(("p", 1, 2)) is None
        assert cache.get(("p", 1, 1)) is not None
        counts = (cache.hits.value, cache.misses.value, cache.evictions.value)
        assert counts == (2, 1, 1)
        assert cache.resident_bytes == 3 * (100 + KIB) and len(cache) == 3

    def test_same_path_other_etag_is_another_blob(self):
        cache = _cache()
        cache.put(("p", 1, 4), b"old")
        assert cache.get(("p", 2, 4)) is None

    def test_entry_larger_than_budget_is_not_kept(self):
        cache = _cache(2 * KIB)
        cache.put(("p", 1, 1), bytes(10))
        cache.put(("p", 1, 2), bytes(2 * KIB))
        assert len(cache) == 1 and cache.evictions.value == 0

    def test_zero_budget_keeps_nothing(self):
        cache = _cache(0)
        cache.put(("p", 1, 1), b"")
        assert len(cache) == 0 and cache.get(("p", 1, 1)) is None

    def test_clear_empties_and_keeps_counters(self):
        cache = _cache()
        cache.put(("p", 1, 1), bytes(10))
        cache.get(("p", 1, 1))
        cache.clear()
        assert len(cache) == 0 and cache.resident_bytes == 0
        assert cache.hits.value == 1

    def test_default_budget_bounds_the_entry_count(self):
        # The per-entry overhead is what stops a tiny-file workload from
        # holding tens of thousands of entries under a byte budget.
        assert BUDGET_BYTES // ENTRY_OVERHEAD_BYTES <= 8192

    @given(
        st.integers(0, 12 * KIB),
        st.lists(
            st.tuples(
                st.integers(0, 12),
                st.integers(0, 3 * KIB),
                st.sampled_from([None, *range(len(FOOTERS))]),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_cost_never_exceeds_budget(self, budget, operations):
        # Chunk entries and footer entries, under disjoint keys as in a
        # real file (every chunk starts before the footer).
        cache = _cache(budget)
        for offset, size, footer in operations:
            if footer is None:
                if cache.get(("p", 1, offset)) is None:
                    cache.put(("p", 1, offset), bytes(size))
            else:
                meta, key = FOOTERS[footer], ("f", 1, footer)
                if cache.get_footer(key, meta.footer) is None:
                    cache.put(key, meta)
            held = sum(map(entry_cost, cache._entries.values()))
            assert cache.resident_bytes == held <= budget

    def test_footer_entry_is_charged_what_it_holds(self):
        assert entry_cost(FOOTERS[0]) == FOOTERS[0].nbytes + KIB
        for columns, rows in ((1, 1), (3, 10), (15, 4), (6, 60)):
            data = _page_file(columns, rows)
            read_footer(data, source="p")
            tracemalloc.start()
            try:
                # Enough copies that objects served from Python's free
                # lists (which tracemalloc does not see) do not matter.
                metas = [read_footer(data, source="p") for __ in range(1000)]
                held = tracemalloc.get_traced_memory()[0] / len(metas)
            finally:
                tracemalloc.stop()
            # An upper bound, loose by the ints below 257 Python shares.
            assert held <= metas[0].nbytes <= 2 * held, (columns, rows)

    def test_footer_hit_needs_the_same_footer_bytes(self):
        cache, meta = _cache(), FOOTERS[1]
        cache.put(("p", 1, 9), meta)
        assert cache.get_footer(("p", 1, 9), meta.footer) is meta
        assert cache.get_footer(("p", 1, 9), meta.footer[:-1] + b"!") is None
        assert cache.get_footer(("p", 2, 9), meta.footer) is None
        assert (cache.hits.value, cache.misses.value) == (1, 2)

    def test_a_parsed_footer_cannot_be_mutated(self):
        meta = FOOTERS[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            meta.num_rows = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            meta.names = ("other",)
        with pytest.raises(TypeError):
            meta.positions["column_0"] = 2
        with pytest.raises(TypeError):
            meta.offsets[0] = 0
        with pytest.raises(AttributeError):
            meta.names.append("extra")


# -- the rule, through a real warehouse ---------------------------------------

SCHEMA = Schema.of(("k", "int64"), ("name", "string"), ("x", "float64"))
ROWS = 400


def _loaded(config: PolarisConfig = None) -> Warehouse:
    dw = Warehouse(config=config or small_config(), auto_optimize=False)
    session = dw.session()
    session.create_table("t", SCHEMA, distribution_column="k")
    session.insert(
        "t",
        {
            "k": np.arange(ROWS, dtype=np.int64),
            "name": np.array([f"n{i % 5}" for i in range(ROWS)], dtype=object),
            "x": np.arange(ROWS, dtype=np.float64),
        },
    )
    return dw


def _scan(dw: Warehouse):
    return dw.session().query(TableScan("t", ["k", "name", "x"]))


def _files(dw: Warehouse):
    return sorted(
        dw.session().table_snapshot("t").files.values(), key=lambda info: info.path
    )


@pytest.fixture
def warm():
    """A warehouse whose every chunk and footer of ``t`` is cached."""
    dw = _loaded()
    _scan(dw)
    before = dw.context.chunk_cache.misses.value
    _scan(dw)
    assert dw.context.chunk_cache.misses.value == before, "second scan must be all hits"
    assert len(_footers(dw.context.chunk_cache)) == len(_files(dw))
    return dw


@pytest.fixture
def parses(monkeypatch):
    """The ``origin`` of every ``_parse_footer`` call."""
    calls = []
    original = file_format._parse_footer

    def spy(footer, body_end, origin):
        calls.append(origin)
        return original(footer, body_end, origin)

    monkeypatch.setattr(file_format, "_parse_footer", spy)
    return calls


def _one_more(index):
    """A ``_reseal`` patch adding one to layout entry ``index``."""

    def patch(footer):
        at, width = _layout_at(footer)
        entry = footer[at + index * width : at + (index + 1) * width]
        _set_layout(index, int.from_bytes(entry, "little") + 1)(footer)

    return patch


class TestFooterParsedOncePerBlob:
    def test_one_parse_per_path_and_etag(self, parses):
        dw = _loaded()
        for __ in range(3):
            _scan(dw)
        paths = [info.path for info in _files(dw)]
        assert Counter(parses) == Counter(f"{path}: " for path in paths)

    def test_an_overwrite_at_the_same_path_parses_again(self, warm, parses):
        info = _files(warm)[0]
        blob = warm.store.get(info.path)
        warm.store.put(info.path, blob.data, metadata=dict(blob.metadata), overwrite=True)
        _scan(warm)
        _scan(warm)
        assert parses == [f"{info.path}: "]

    def test_readers_of_one_blob_share_the_footer(self, warm, parses):
        info = _files(warm)[0]
        first = _open_data_file(warm.context, info)
        assert _open_data_file(warm.context, info).meta is first.meta
        assert parses == []

    @pytest.mark.parametrize(
        "damage,match",
        [
            # Footer crc32 broken: one footer byte flipped, trailer kept.
            (lambda data: data[:-20] + bytes([data[-20] ^ 1]) + data[-19:], "crc32"),
            # Trailer resealed over a footer whose first row group claims
            # a row more than its chunks hold: caught as they decode.
            (
                lambda data: _reseal(data, _one_more(0)),
                "truncated|rows need",
            ),
            # Trailer resealed over a first chunk running into the next.
            (lambda data: _reseal(data, _one_more(1)), "add up to"),
            # Trailer resealed over an unknown column type code.
            (
                lambda data: _reseal(
                    data, lambda footer: footer.__setitem__(_FOOTER_HEADER.size, 9)
                ),
                "bad schema",
            ),
            (lambda data: data[:-4] + b"RPF1", "bad magic"),
            # Trailer claiming a footer longer than the file.
            (
                lambda data: data[:-12] + struct.pack("<I", len(data)) + data[-8:],
                "exceeds file size",
            ),
        ],
    )
    def test_a_damaged_copy_under_the_same_key_still_raises(self, warm, damage, match):
        info = _files(warm)[0]
        blob = warm.store.get(info.path)
        cache = warm.context.chunk_cache
        cached = PageFileReader(blob.data, info.path, cache, blob.etag).meta
        with pytest.raises(FileFormatError, match=f"{info.path}: .*({match})"):
            PageFileReader(damage(blob.data), info.path, cache, blob.etag).read()
        assert PageFileReader(blob.data, info.path, cache, blob.etag).meta is cached


class TestWarmCacheMasksNothing:
    def test_bit_flip_on_get_still_raises(self, warm):
        path = _files(warm)[0].path
        warm.store.faults.arm_corruption("bit_flip", path, operation="get")
        with pytest.raises(IntegrityError):
            _scan(warm)
        assert len(_scan(warm)["k"]) == ROWS  # the fault was one-shot

    def test_stale_read_still_raises(self, warm):
        # Give one data file a previous version (same bytes, same
        # checksum as the manifest records), re-warm, then serve the
        # previous payload under the current metadata.
        store, info = warm.store, _files(warm)[0]
        blob = store.get(info.path)
        store.put(info.path, b"an older replica's bytes", overwrite=True)
        store.put(info.path, blob.data, metadata=dict(blob.metadata), overwrite=True)
        _scan(warm)
        store.faults.arm_corruption("stale_read", info.path, operation="get")
        with pytest.raises(IntegrityError):
            _scan(warm)

    def test_at_rest_rot_still_raises(self, warm):
        warm.store.damage(_files(warm)[0].path, "bit_flip")
        with pytest.raises(IntegrityError):
            _scan(warm)

    def test_swapped_blob_fails_the_manifest_cross_check(self, warm):
        # Same path, self-consistent metadata, other content: only the
        # manifest's mirrored checksum can tell — and it is still consulted.
        first, second = _files(warm)[:2]
        warm.store.put(first.path, warm.store.get(second.path).data, overwrite=True)
        with pytest.raises(IntegrityError):
            _scan(warm)

    def test_quarantined_blob_is_not_served_from_cache(self, warm):
        warm.store.quarantine(_files(warm)[0].path)
        with pytest.raises(BlobNotFoundError):
            _scan(warm)

    def test_gc_deleted_blob_is_not_served_from_cache(self, warm):
        warm.store.delete(_files(warm)[0].path)
        with pytest.raises(BlobNotFoundError):
            _scan(warm)


class TestOneCrcPerOpen:
    """Both checks run on every open, but the crc32 is computed once."""

    @pytest.fixture
    def crc_calls(self, monkeypatch):
        calls = []
        original = integrity.compute_checksum

        def counting(data):
            calls.append(len(data))
            return original(data)

        monkeypatch.setattr(integrity, "compute_checksum", counting)
        return calls

    def test_data_file_open_computes_one_checksum(self, warm, crc_calls):
        _open_data_file(warm.context, _files(warm)[0])
        assert len(crc_calls) == 1

    def test_dv_load_computes_one_checksum(self, warm, crc_calls):
        warm.session().delete("t", BinOp("<", Col("k"), Lit(10)))
        snapshot = warm.session().table_snapshot("t")
        dv_info = next(iter(snapshot.dvs.values()))
        del crc_calls[:]
        assert _load_dv(warm.context, dv_info).cardinality > 0
        assert len(crc_calls) == 1

    def test_metadata_less_blob_is_still_cross_checked(self, warm, crc_calls):
        # A legacy blob without a metadata checksum passes ``get``
        # trivially; the manifest's checksum must then be computed.
        first, second = _files(warm)[:2]
        swapped = warm.store.get(second.path).data
        warm.store.put(
            first.path, swapped, metadata={CHECKSUM_KEY: ""}, overwrite=True
        )
        del crc_calls[:]
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            _open_data_file(warm.context, first)
        assert len(crc_calls) == 1

    def test_unswapped_metadata_less_blob_opens(self, warm):
        info = _files(warm)[0]
        data = warm.store.get(info.path).data
        warm.store.put(info.path, data, metadata={CHECKSUM_KEY: ""}, overwrite=True)
        assert len(_open_data_file(warm.context, info).read()["k"]) == info.num_rows

    def test_swapped_blob_with_rewritten_metadata_raises(self, warm):
        first, second = _files(warm)[:2]
        swapped = warm.store.get(second.path)
        warm.store.put(
            first.path, swapped.data, metadata=dict(swapped.metadata), overwrite=True
        )
        with pytest.raises(IntegrityError, match=f"{first.path}: checksum mismatch"):
            _open_data_file(warm.context, first)


class TestSameCostWarmColdOrOff:
    def test_fetches_bytes_and_simulated_seconds_identical(self):
        # Three identical histories, so the absolute clocks and meters
        # must agree to the last bit whatever the cache did.
        warm, cleared, off = _loaded(), _loaded(), _loaded()
        off.context.chunk_cache = _cache(0)
        for dw in (warm, cleared, off):
            _scan(dw)
        cleared.context.chunk_cache.clear()
        batches = [_scan(dw) for dw in (warm, cleared, off)]
        assert warm.context.chunk_cache.hits.value > 0
        assert len(_footers(warm.context.chunk_cache)) == len(_files(warm))
        assert cleared.context.chunk_cache.hits.value == 0
        assert len(off.context.chunk_cache) == 0
        for dw, batch in zip((cleared, off), batches[1:]):
            assert dw.clock.now == warm.clock.now
            assert dw.store.meter.requests == warm.store.meter.requests
            assert dw.store.meter.bytes_read == warm.store.meter.bytes_read
            for name, values in batches[0].items():
                assert batch[name].tolist() == values.tolist()
        assert warm.store.meter.requests["get"] >= 2 * len(_files(warm))


class TestLifecycle:
    def test_recovery_leaves_the_cache_empty(self, warm, parses):
        cache = warm.context.chunk_cache
        assert len(cache) > len(_footers(cache)) > 0
        RecoveryManager(warm.context, sto=warm.sto).recover()
        assert len(cache) == 0 and cache.resident_bytes == 0
        assert len(_scan(warm)["k"]) == ROWS
        assert len(parses) == len(_files(warm)), "footers are parsed again"

    def test_mutating_a_returned_array_does_not_change_the_next_read(self, warm):
        info = _files(warm)[0]
        first = _open_data_file(warm.context, info).read()
        expected = {name: values.tolist() for name, values in first.items()}
        first["k"][:] = -1
        first["x"][:] = np.nan
        first["name"][:] = "clobbered"
        second = _open_data_file(warm.context, info).read()
        assert {name: values.tolist() for name, values in second.items()} == expected

    def test_each_warehouse_has_its_own_cache(self):
        # Same seed, same GUID paths, same etags: a shared cache would
        # serve one warehouse the other's chunks.
        a, b = _loaded(), _loaded()
        assert [f.path for f in _files(a)] == [f.path for f in _files(b)]
        assert a.context.chunk_cache is not b.context.chunk_cache


class TestVisibility:
    def test_stats_are_mirrored_to_metrics_and_the_health_report(self):
        dw = _loaded()
        _scan(dw)
        _scan(dw)
        cache = dw.context.chunk_cache
        metrics = dw.telemetry.metrics
        # The cache counts into the deployment's registry and nowhere else.
        assert cache.hits is metrics.counter("pagefile.chunk_cache.hits")
        assert cache.misses is metrics.counter("pagefile.chunk_cache.misses")
        assert cache.evictions is metrics.counter("pagefile.chunk_cache.evictions")
        hits, misses = int(cache.hits.value), int(cache.misses.value)
        assert hits > 0 and misses > 0
        assert metrics.value("pagefile.chunk_cache.resident_bytes") == cache.resident_bytes
        line = (
            f"chunk cache: {hits} hits, {misses} misses, "
            f"{int(cache.evictions.value)} evictions, {cache.resident_bytes} B resident"
        )
        assert line in dw.context.introspection.report()
