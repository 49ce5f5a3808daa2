"""A statement's catalog work does not grow with table age, and what a
snapshot implies is derived once per snapshot without ever going stale.

* The table-age guard: one point ``SELECT`` reads as many catalog
  versions after 1 000 commits as after 10 — the newest visible manifest
  is a seek, not a scan of the table's history.
* The values derived from a cached snapshot (its ``TableStats``, cells and
  zone maps) and the rehydrated ``TableStatistics`` of a catalog version
  are shared across statements; a re-ANALYZE, a recovery or a
  transaction's own writes must never be served a stale one.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro import Schema, SqlSession, TableScan, Warehouse
from repro.chaos.recovery import RecoveryManager
from repro.engine.statistics import collect_stats
from repro.lst.cache import SnapshotCache
from repro.lst.snapshot import TableSnapshot
from repro.sqldb import system_tables
from repro.sqldb.mvcc import VersionedStore
from tests.conftest import small_config


def _catalog_reads_of_point_select(commits: int, monkeypatch) -> int:
    dw = Warehouse()
    sql = SqlSession(dw.session())
    sql.execute("CREATE TABLE t (id bigint, v double)")
    for key in range(commits):
        sql.execute(f"INSERT INTO t (id, v) VALUES ({key}, {key}.5)")
    sql.execute("SELECT v FROM t WHERE id = 1")  # warm every cache
    calls = []
    real = VersionedStore.visible

    def counting(self, key, as_of_seq):
        calls.append(key)
        return real(self, key, as_of_seq)

    with monkeypatch.context() as patch:
        patch.setattr(VersionedStore, "visible", counting)
        out = sql.execute("SELECT v FROM t WHERE id = 2")
    assert out["v"].tolist() == [2.5]
    return len(calls)


def test_a_point_select_reads_as_many_catalog_versions_at_1000_commits_as_at_10(
    monkeypatch,
):
    assert _catalog_reads_of_point_select(10, monkeypatch) == (
        _catalog_reads_of_point_select(1_000, monkeypatch)
    )


@pytest.fixture
def dw():
    warehouse = Warehouse(config=small_config(), auto_optimize=False)
    session = warehouse.session()
    session.create_table("t", Schema.of(("id", "int64"), ("v", "float64")))
    for start in range(0, 300, 100):
        session.insert(
            "t",
            {
                "id": np.arange(start, start + 100, dtype=np.int64),
                "v": np.arange(start, start + 100, dtype=np.float64),
            },
        )
    return warehouse


def _catalog_inputs(dw):
    """The optimizer's statistics for a scan of ``t``, read in a fresh
    transaction."""
    session = dw.session()
    txn = session.begin()
    try:
        return dw.context.optimizer.catalog_inputs(
            txn, TableScan("t", ("id",))
        ).get("t")
    finally:
        txn.rollback()


class TestTableStatisticsMemo:
    def test_one_rehydration_per_catalog_version(self, dw):
        dw.session().analyze_table("t")
        first = _catalog_inputs(dw)
        assert first is not None
        assert _catalog_inputs(dw) is first

    def test_a_reanalyze_at_the_same_sequence_is_seen(self, dw):
        """Re-ANALYZE overwrites the ``(table, sequence)`` row in place;
        the next statement must see the new statistics, not the memo."""
        session = dw.session()
        session.analyze_table("t")
        before = _catalog_inputs(dw)
        dw.clock.advance(5.0)
        session.analyze_table("t")
        after = _catalog_inputs(dw)
        assert after.sequence_id == before.sequence_id
        assert after.analyzed_at > before.analyzed_at
        assert after is not before

    def test_own_uncommitted_analyze_is_not_memoised(self, dw):
        session = dw.session()
        session.analyze_table("t")
        committed = _catalog_inputs(dw)
        txn = session.begin()
        try:
            dw.clock.advance(5.0)
            dw.context.optimizer.analyze_table(txn, "t")
            own = dw.context.optimizer.catalog_inputs(txn, TableScan("t", ("id",)))
            assert own["t"].analyzed_at > committed.analyzed_at
        finally:
            txn.rollback()
        assert _catalog_inputs(dw) is committed


class TestSnapshotDerivedValues:
    def test_stats_event_fires_once_per_scan_with_fresh_stats(self, dw):
        seen = []
        dw.context.bus.subscribe("stats.table", seen.append)
        session = dw.session()
        for __ in range(3):
            session.query(TableScan("t", ("id",), prune=(("id", "<", 50),)))
        assert len(seen) == 3
        snapshot = session.table_snapshot("t")
        fresh = collect_stats(
            seen[0].payload["table_id"], snapshot, dw.config.sto
        )
        assert all(event.payload["stats"] == fresh for event in seen)

    def test_recovery_drops_the_derived_values(self, dw):
        session = dw.session()
        session.query(TableScan("t", ("id",), prune=(("id", "<", 50),)))
        session.analyze_table("t")
        _catalog_inputs(dw)
        snapshot = session.table_snapshot("t")
        reader = dw.context.sqldb.begin()
        table_id = system_tables.find_table_by_name(reader, "t")["table_id"]
        reader.abort()
        cache = dw.context.cache
        assert cache.derived(table_id, snapshot, "stats", list) != []
        RecoveryManager(dw.context, sto=dw.sto).recover()
        assert cache.derived(table_id, snapshot, "stats", list) == []
        assert dw.context.optimizer.stats_cache == {}

    def test_own_writes_are_never_served_the_committed_values(self, dw):
        """A transaction's overlay of its snapshot at sequence *s* is
        numbered *s + 1* — which a later commit to the table also is.  Its
        scans must see its own files in the cells and its own rows in the
        stats, not that commit's cached values."""
        seen = []
        dw.context.bus.subscribe("stats.table", seen.append)
        count = TableScan("t", ("id",))
        mine = dw.session()
        txn = mine.begin()
        assert len(mine.query(count)["id"]) == 300
        other = dw.session()
        other.insert("t", {"id": np.arange(5, dtype=np.int64), "v": np.zeros(5)})
        assert len(other.query(count)["id"]) == 305
        mine.insert("t", {"id": np.array([1_000], dtype=np.int64), "v": np.ones(1)})
        table_id = seen[-1].payload["table_id"]
        overlay = txn.table_snapshot(table_id)
        committed = other.table_snapshot("t")
        assert overlay.sequence_id == committed.sequence_id
        assert len(mine.query(count)["id"]) == 301
        assert seen[-1].payload["stats"].total_rows == 301
        assert seen[-1].payload["stats"] == collect_stats(
            table_id, overlay, dw.config.sto
        )
        mine.rollback()
        assert len(mine.query(count)["id"]) == 305


class TestSnapshotCacheDerived:
    def _cache(self):
        return SnapshotCache(
            lambda table_id, lo, hi: [], lambda table_id, seq: None
        )

    def test_computed_once_per_cached_snapshot(self):
        cache = self._cache()
        snapshot = cache.get(7, 0)
        calls = []
        for __ in range(3):
            assert cache.derived(7, snapshot, "x", lambda: calls.append(1) or 42) == 42
        assert calls == [1]

    def test_another_snapshot_at_the_same_sequence_is_computed_afresh(self):
        cache = self._cache()
        cached = cache.get(7, 0)
        cache.derived(7, cached, "x", lambda: "committed")
        lookalike = TableSnapshot(sequence_id=cached.sequence_id)
        assert cache.derived(7, lookalike, "x", lambda: "own") == "own"
        assert cache.derived(7, cached, "x", lambda: "again") == "committed"
        cache.invalidate(7)
        assert cache.derived(7, cached, "x", lambda: "gone") == "gone"
