"""Tests for snapshot reconstruction and checkpoints."""

import pytest

from repro.common.errors import FileFormatError
from repro.lst import (
    AddDataFile,
    AddDeletionVector,
    Checkpoint,
    DataFileInfo,
    DeletionVectorInfo,
    RemoveDataFile,
    RemoveDeletionVector,
    TableSnapshot,
    replay,
)
from repro.storage import paths

#: Every descriptor here lives under table 1001 of ``dw``; the
#: checkpoints are that table's.
CHECKPOINT = paths.checkpoint_path("dw", 1001, 1)


def df(name, rows=10):
    return DataFileInfo(name=name, path=paths.data_file_path("dw", 1001, name), num_rows=rows,
                        size_bytes=rows * 8, distribution=0)


def dv(name, target, cardinality=2):
    return DeletionVectorInfo(name=name, path=paths.dv_file_path("dw", 1001, name),
                              target_file=target,
                              cardinality=cardinality, size_bytes=64)


class TestReplay:
    def test_empty_snapshot(self):
        snap = TableSnapshot()
        assert snap.sequence_id == 0
        assert snap.live_rows == 0

    def test_add_files(self):
        snap = TableSnapshot().apply_manifest(
            [AddDataFile(df("a", 5)), AddDataFile(df("b", 7))], 1
        )
        assert snap.live_rows == 12
        assert snap.sequence_id == 1

    def test_apply_is_persistent(self):
        base = TableSnapshot()
        base.apply_manifest([AddDataFile(df("a"))], 1)
        assert base.live_rows == 0  # original untouched

    def test_dv_reduces_live_rows(self):
        snap = replay([
            (1, 0.0, [AddDataFile(df("a", 10))]),
            (2, 1.0, [AddDeletionVector(dv("d", "a", cardinality=4))]),
        ])
        assert snap.live_rows == 6
        assert snap.dv_for("a").name == "d"

    def test_dv_replacement(self):
        snap = replay([
            (1, 0.0, [AddDataFile(df("a", 10)), AddDeletionVector(dv("d1", "a", 2))]),
            (2, 1.0, [RemoveDeletionVector("d1", "a"),
                      AddDeletionVector(dv("d2", "a", 5))]),
        ])
        assert snap.live_rows == 5
        assert snap.dv_for("a").name == "d2"

    def test_remove_file_leaves_no_record(self):
        snap = replay([
            (1, 0.0, [AddDataFile(df("a"))]),
            (2, 9.0, [RemoveDataFile("a")]),
        ])
        assert snap.live_rows == 0
        assert snap.to_dict("dw", 1001) == {"sequence_id": 2, "files": [], "dvs": []}

    def test_remove_file_retires_its_dv(self):
        snap = replay([
            (1, 0.0, [AddDataFile(df("a", 10)), AddDeletionVector(dv("d", "a"))]),
            (2, 1.0, [RemoveDataFile("a")]),
        ])
        assert snap.dv_for("a") is None
        assert snap.dvs == {}

    def test_removes_drop_exactly_what_they_name(self):
        snap = replay([
            (1, 0.0, [AddDataFile(df("a")), AddDataFile(df("b")),
                      AddDeletionVector(dv("da", "a")),
                      AddDeletionVector(dv("db", "b"))]),
            (2, 1.0, [RemoveDataFile("a"), RemoveDeletionVector("db", "b")]),
        ])
        assert set(snap.files) == {"b"}
        assert snap.dvs == {}

    def test_duplicate_add_rejected(self):
        snap = TableSnapshot().apply_manifest([AddDataFile(df("a"))], 1)
        with pytest.raises(FileFormatError, match="duplicate add"):
            snap.apply_manifest([AddDataFile(df("a"))], 2)

    def test_remove_unknown_file_rejected(self):
        with pytest.raises(FileFormatError, match="unknown data file"):
            TableSnapshot().apply_manifest(
                [RemoveDataFile("ghost")], 1
            )

    def test_dv_on_unknown_file_rejected(self):
        with pytest.raises(FileFormatError, match="unknown data file"):
            TableSnapshot().apply_manifest(
                [AddDeletionVector(dv("d", "ghost"))], 1
            )

    def test_double_dv_without_remove_rejected(self):
        snap = replay([(1, 0.0, [AddDataFile(df("a")), AddDeletionVector(dv("d1", "a"))])])
        with pytest.raises(FileFormatError, match="already has a DV"):
            snap.apply_manifest([AddDeletionVector(dv("d2", "a"))], 2)

    def test_remove_wrong_dv_rejected(self):
        snap = replay([(1, 0.0, [AddDataFile(df("a")), AddDeletionVector(dv("d1", "a"))])])
        with pytest.raises(FileFormatError, match="unknown DV"):
            snap.apply_manifest(
                [RemoveDeletionVector("other", "a")], 2
            )

    def test_replay_skips_already_applied(self):
        base = replay([(1, 0.0, [AddDataFile(df("a"))])])
        snap = replay(
            [(1, 0.0, [AddDataFile(df("a"))]), (2, 1.0, [AddDataFile(df("b"))])],
            base=base,
        )
        assert set(snap.files) == {"a", "b"}

    def test_total_bytes(self):
        snap = replay([(1, 0.0, [AddDataFile(df("a", 10)), AddDataFile(df("b", 5))])])
        assert snap.total_bytes == 120


class TestCheckpointEquivalence:
    def manifests(self):
        return [
            (1, 0.0, [AddDataFile(df("a", 10))]),
            (2, 1.0, [AddDataFile(df("b", 20))]),
            (3, 2.0, [AddDeletionVector(dv("d", "a", 3))]),
            (4, 3.0, [RemoveDataFile("b")]),
            (5, 4.0, [RemoveDeletionVector("d", "a"),
                      AddDeletionVector(dv("d2", "a", 5))]),
        ]

    @pytest.mark.parametrize("cut", [1, 2, 3, 4])
    def test_checkpoint_plus_tail_equals_full_replay(self, cut):
        manifests = self.manifests()
        full = replay(manifests)
        prefix = replay(manifests[:cut])
        checkpoint = Checkpoint.of(prefix, created_at=99.0)
        restored = Checkpoint.from_bytes(checkpoint.to_bytes(CHECKPOINT), CHECKPOINT).snapshot
        resumed = replay(manifests[cut:], base=restored)
        assert resumed.files == full.files
        assert resumed.dvs == full.dvs
        assert resumed.sequence_id == full.sequence_id

    def test_a_checkpoint_holds_only_the_live_state(self):
        snap = replay([
            (1, 0.0, [AddDataFile(df("a")), AddDataFile(df("b")),
                      AddDeletionVector(dv("da", "a")),
                      AddDeletionVector(dv("db", "b"))]),
            (2, 1.5, [RemoveDataFile("a")]),
        ])
        assert snap.to_dict("dw", 1001) == {
            "sequence_id": 2,
            "files": [df("b").to_dict()],
            "dvs": [dv("db", "b").to_dict()],
        }
        data = Checkpoint.of(snap, 0.0).to_bytes(CHECKPOINT)
        restored = Checkpoint.from_bytes(data, CHECKPOINT)
        assert restored.snapshot == snap

    def test_checkpoint_serialization_roundtrip(self):
        snap = replay(self.manifests())
        ckpt = Checkpoint.of(snap, created_at=12.5)
        parsed = Checkpoint.from_bytes(ckpt.to_bytes(CHECKPOINT), CHECKPOINT)
        assert parsed.sequence_id == 5
        assert parsed.created_at == 12.5
        assert parsed.snapshot.live_rows == snap.live_rows
