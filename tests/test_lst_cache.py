"""Tests for the BE snapshot cache: hits, incremental extension, eviction."""


from repro.lst import AddDataFile, DataFileInfo, SnapshotCache, TableSnapshot


def df(name, rows=10):
    return DataFileInfo(name=name, path=f"p/{name}", num_rows=rows,
                        size_bytes=80, distribution=0)


class FakeLog:
    """An in-memory manifest log with call accounting."""

    def __init__(self, per_table):
        self.per_table = per_table  # table_id -> [(seq, ts, actions)]
        self.load_calls = 0
        self.checkpoint_calls = 0
        self.checkpoints = {}  # table_id -> TableSnapshot

    def load_manifests(self, table_id, lo, hi):
        self.load_calls += 1
        return [
            (seq, ts, actions)
            for seq, ts, actions in self.per_table.get(table_id, [])
            if lo < seq <= hi
        ]

    def load_checkpoint(self, table_id, max_seq):
        self.checkpoint_calls += 1
        snap = self.checkpoints.get(table_id)
        if snap is not None and snap.sequence_id <= max_seq:
            return snap
        return None

    def cache(self, **kwargs):
        return SnapshotCache(
            self.load_manifests, self.load_checkpoint, **kwargs
        )


def three_manifest_log():
    return FakeLog({
        1: [
            (1, 0.0, [AddDataFile(df("a"))]),
            (2, 1.0, [AddDataFile(df("b"))]),
            (3, 2.0, [AddDataFile(df("c"))]),
        ]
    })


def test_cold_get_replays_from_empty():
    log = three_manifest_log()
    cache = log.cache()
    snap = cache.get(1, 3)
    assert set(snap.files) == {"a", "b", "c"}
    assert cache.stats.misses == 1
    assert cache.stats.manifests_replayed == 3


def test_exact_hit():
    log = three_manifest_log()
    cache = log.cache()
    cache.get(1, 3)
    cache.get(1, 3)
    assert cache.stats.hits == 1
    assert log.load_calls == 1


def test_incremental_extension():
    log = three_manifest_log()
    cache = log.cache()
    cache.get(1, 1)
    cache.get(1, 3)
    assert cache.stats.incremental_extensions == 1
    # The second get replays only manifests 2 and 3.
    assert cache.stats.manifests_replayed == 3


def test_older_than_cached_falls_back():
    log = three_manifest_log()
    cache = log.cache()
    cache.get(1, 3)
    snap = cache.get(1, 1)
    assert set(snap.files) == {"a"}


def test_checkpoint_used_when_available():
    log = three_manifest_log()
    prefix = TableSnapshot().apply_manifest([AddDataFile(df("a"))], 1)
    prefix = prefix.apply_manifest([AddDataFile(df("b"))], 2)
    log.checkpoints[1] = prefix
    cache = log.cache()
    snap = cache.get(1, 3)
    assert set(snap.files) == {"a", "b", "c"}
    assert cache.stats.manifests_replayed == 1  # only the tail


def test_sequence_between_manifests():
    """A snapshot sequence with no manifest for this table is fine."""
    log = three_manifest_log()
    cache = log.cache()
    snap = cache.get(1, 2)
    assert set(snap.files) == {"a", "b"}
    again = cache.get(1, 2)
    assert set(again.files) == {"a", "b"}


def test_eviction_keeps_newest():
    log = three_manifest_log()
    cache = log.cache(max_versions_per_table=1)
    cache.get(1, 1)
    cache.get(1, 2)
    cache.get(1, 3)
    cache.get(1, 3)
    assert cache.stats.hits == 1


def test_eviction_drops_the_least_recently_used():
    """An old state read again and again (GC's horizon) stays cached while
    newer ones come and go."""
    log = three_manifest_log()
    cache = log.cache(max_versions_per_table=2)
    cache.get(1, 1)
    cache.get(1, 2)
    cache.get(1, 1)  # a hit: 1 is now the most recently used
    cache.get(1, 3)  # evicts 2
    cache.get(1, 1)
    assert (cache.stats.hits, cache.stats.misses) == (2, 1)
    cache.get(1, 2)  # extends 1, the closest cached ancestor
    assert cache.stats.incremental_extensions == 3


def test_invalidate_all():
    log = three_manifest_log()
    cache = log.cache()
    cache.get(1, 3)
    cache.invalidate()
    cache.get(1, 3)
    assert cache.stats.misses == 2


def test_invalidate_one_table():
    log = FakeLog({
        1: [(1, 0.0, [AddDataFile(df("a"))])],
        2: [(2, 0.0, [AddDataFile(df("x"))])],
    })
    cache = log.cache()
    cache.get(1, 1)
    cache.get(2, 2)
    cache.invalidate(table_id=1)
    cache.get(2, 2)
    assert cache.stats.hits == 1  # table 2 still cached


def test_unknown_table_yields_empty_snapshot():
    cache = FakeLog({}).cache()
    snap = cache.get(99, 5)
    assert snap.files == {}
