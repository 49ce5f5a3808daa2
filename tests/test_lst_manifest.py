"""Tests for manifest encoding and intra-transaction reconciliation."""

import pytest

from repro.lst import (
    AddDataFile,
    AddDeletionVector,
    DataFileInfo,
    DeletionVectorInfo,
    RemoveDataFile,
    RemoveDeletionVector,
    decode_manifest,
    encode_actions,
    reconcile_actions,
)
from repro.lst.actions import action_from_dict


def df(name, rows=10, dist=0):
    return DataFileInfo(
        name=name, path=f"p/{name}", num_rows=rows, size_bytes=rows * 8,
        distribution=dist,
    )


def dv(name, target, cardinality=2):
    return DeletionVectorInfo(
        name=name, path=f"p/{name}", target_file=target,
        cardinality=cardinality, size_bytes=64,
    )


class TestWireFormat:
    def test_roundtrip_all_action_kinds(self):
        actions = [
            AddDataFile(df("f1")),
            RemoveDataFile("f2"),
            AddDeletionVector(dv("d1", "f1")),
            RemoveDeletionVector("d0", "f1"),
        ]
        assert decode_manifest(encode_actions(actions)) == actions

    def test_block_concatenation(self):
        """The manifest is the concatenation of independently encoded blocks."""
        block1 = encode_actions([AddDataFile(df("f1"))])
        block2 = encode_actions([AddDataFile(df("f2"))])
        actions = decode_manifest(block1 + block2)
        assert [a.file.name for a in actions] == ["f1", "f2"]

    def test_empty_manifest(self):
        assert decode_manifest(b"") == []
        assert decode_manifest(encode_actions([])) == []

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown manifest action"):
            action_from_dict({"action": "mystery"})


class TestReconcile:
    def test_passthrough(self):
        actions = [AddDataFile(df("f1")), AddDeletionVector(dv("d1", "f2"))]
        net, orphans = reconcile_actions(actions)
        assert set(net) == set(actions)
        assert orphans == []

    def test_add_then_remove_cancels(self):
        net, orphans = reconcile_actions(
            [AddDataFile(df("f1")), RemoveDataFile("f1")]
        )
        assert net == []
        assert orphans == ["p/f1"]

    def test_remove_of_committed_file_kept(self):
        net, orphans = reconcile_actions([RemoveDataFile("old")])
        assert net == [RemoveDataFile("old")]
        assert orphans == []

    def test_second_dv_supersedes_private_first(self):
        """Update-after-update: only the last private DV survives."""
        first = AddDeletionVector(dv("d1", "f"))
        second = AddDeletionVector(dv("d2", "f", cardinality=5))
        net, orphans = reconcile_actions([first, second])
        assert net == [second]
        assert orphans == ["p/d1"]

    def test_remove_committed_dv_kept_with_new_add(self):
        """Delete on a file with an existing committed DV: remove + add."""
        actions = [
            RemoveDeletionVector("committed", "f"),
            AddDeletionVector(dv("merged", "f")),
        ]
        net, orphans = reconcile_actions(actions)
        assert net == actions  # removes ordered before adds
        assert orphans == []

    def test_remove_of_private_dv_cancels(self):
        net, orphans = reconcile_actions(
            [AddDeletionVector(dv("d1", "f")), RemoveDeletionVector("d1", "f")]
        )
        assert net == []
        assert orphans == ["p/d1"]

    def test_dv_on_removed_file_dropped(self):
        """A DV targeting a file the txn itself removes is pointless."""
        net, orphans = reconcile_actions(
            [AddDeletionVector(dv("d1", "old")), RemoveDataFile("old")]
        )
        assert net == [RemoveDataFile("old")]
        assert orphans == ["p/d1"]

    def test_removes_ordered_before_adds(self):
        net, __ = reconcile_actions(
            [
                AddDataFile(df("new")),
                RemoveDataFile("old"),
                AddDeletionVector(dv("d", "other")),
                RemoveDeletionVector("olddv", "other"),
            ]
        )
        kinds = [a.kind for a in net]
        assert kinds == ["remove_file", "remove_dv", "add_file", "add_dv"]

    def test_multi_statement_accumulation(self):
        """insert; delete part of it; delete more — the Figure 6 X2 pattern."""
        stmt1 = [AddDataFile(df("f1", rows=100))]
        stmt2 = [AddDeletionVector(dv("d1", "f1"))]
        stmt3 = [
            RemoveDeletionVector("d1", "f1"),
            AddDeletionVector(dv("d2", "f1", cardinality=7)),
        ]
        net, orphans = reconcile_actions(stmt1 + stmt2 + stmt3)
        assert AddDataFile(df("f1", rows=100)) in net
        assert AddDeletionVector(dv("d2", "f1", cardinality=7)) in net
        assert len(net) == 2
        assert orphans == ["p/d1"]
