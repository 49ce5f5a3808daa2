"""Tests for fault injection and the block-blob client."""

import pytest

from repro.common.config import StorageConfig
from repro.common.errors import TransientStorageError
from repro.common.ids import TransactionNames
from repro.storage import BlockBlobClient, ObjectStore
from repro.storage import failures as storage_failures


class TestFaultInjection:
    def test_armed_fault_fires_once(self):
        store = ObjectStore()
        store.faults.arm("target")
        with pytest.raises(TransientStorageError):
            store.put("a/target/b", b"x")
        store.put("a/target/b", b"x")  # second attempt succeeds

    def test_armed_fault_matches_operation(self):
        store = ObjectStore()
        store.faults.arm("f", operation="get")
        store.put("f", b"x")  # put unaffected
        with pytest.raises(TransientStorageError):
            store.get("f")

    def test_armed_fault_ignores_other_paths(self):
        store = ObjectStore()
        store.faults.arm("xyz")
        store.put("abc", b"1")
        assert store.exists("abc")

    def test_random_faults_follow_rate(self):
        config = StorageConfig(transient_failure_rate=1.0)
        store = ObjectStore(config=config)
        with pytest.raises(TransientStorageError):
            store.put("a", b"x")

    def test_zero_rate_never_fails(self):
        store = ObjectStore(config=StorageConfig(transient_failure_rate=0.0))
        for i in range(100):
            store.put(f"p{i}", b"x")

    def test_random_faults_deterministic_per_seed(self, monkeypatch):
        def failures(seed: int) -> list:
            monkeypatch.setattr(storage_failures, "FAILURE_SEED", seed)
            store = ObjectStore(config=StorageConfig(transient_failure_rate=0.5))
            out = []
            for i in range(50):
                try:
                    store.put(f"p{i}", b"")
                    out.append(False)
                except TransientStorageError:
                    out.append(True)
            return out

        assert failures(5) == failures(5)
        assert failures(5) != failures(6)


class TestBlockBlobClient:
    def test_write_block_stages_and_remembers(self):
        store = ObjectStore()
        client = BlockBlobClient(store, "m", TransactionNames(100_000))
        bid = client.write_block(b"data")
        assert client.written_block_ids == [bid]
        store.commit_block_list("m", [bid])
        assert store.get("m").data == b"data"

    def test_two_clients_do_not_interfere(self):
        """Two BE nodes staging concurrently against one manifest."""
        store = ObjectStore()
        names = TransactionNames(100_000)
        a = BlockBlobClient(store, "m", names)
        b = BlockBlobClient(store, "m", names)
        ida = a.write_block(b"A")
        idb = b.write_block(b"B")
        store.commit_block_list("m", [ida, idb])
        assert store.get("m").data == b"AB"

    def test_abandoned_attempt_blocks_discarded(self):
        """A restarted task's first-attempt blocks never become visible."""
        store = ObjectStore()
        names = TransactionNames(100_000)
        attempt1 = BlockBlobClient(store, "m", names)
        attempt1.write_block(b"garbage")
        attempt2 = BlockBlobClient(store, "m", names)
        good = attempt2.write_block(b"good")
        store.commit_block_list("m", [good])
        assert store.get("m").data == b"good"
