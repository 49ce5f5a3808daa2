"""The decompressed-chunk cache: its bookkeeping, and the rule it lives by.

The rule (DESIGN.md, "The chunk cache"): **a hit skips ``zlib.decompress``
and nothing else**.  ``store.get`` and both checksum verifications run on
every open, so a warm cache can mask no fault, no quarantine and no GC
deletion, and a query costs the same fetches, bytes and simulated seconds
warm, cold or with a zero budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PolarisConfig, Schema, Warehouse
from repro.chaos.recovery import RecoveryManager
from repro.common.errors import BlobNotFoundError, IntegrityError
from repro.engine.expressions import BinOp, Col, Lit
from repro.engine.planner import TableScan
from repro.fe.write_path import _load_dv, _open_data_file
from repro.pagefile.cache import BUDGET_BYTES, ENTRY_OVERHEAD_BYTES, ChunkCache
from repro.storage import integrity
from repro.storage.integrity import CHECKSUM_KEY
from tests.conftest import small_config

KIB = ENTRY_OVERHEAD_BYTES


class TestBookkeeping:
    def test_hit_miss_and_lru_eviction(self):
        cache = ChunkCache(budget_bytes=3 * (100 + KIB))
        for offset in (1, 2, 3):
            cache.put(("p", 1, offset), bytes(100))
        assert cache.get(("p", 1, 1)) == bytes(100)  # 1 is now most recent
        cache.put(("p", 1, 4), bytes(100))  # evicts 2, the least recent
        assert cache.get(("p", 1, 2)) is None
        assert cache.get(("p", 1, 1)) is not None
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (2, 1, 1)
        assert stats.resident_bytes == 3 * (100 + KIB) and len(cache) == 3

    def test_same_path_other_etag_is_another_blob(self):
        cache = ChunkCache()
        cache.put(("p", 1, 4), b"old")
        assert cache.get(("p", 2, 4)) is None

    def test_entry_larger_than_budget_is_not_kept(self):
        cache = ChunkCache(budget_bytes=2 * KIB)
        cache.put(("p", 1, 1), bytes(10))
        cache.put(("p", 1, 2), bytes(2 * KIB))
        assert len(cache) == 1 and cache.stats.evictions == 0

    def test_zero_budget_keeps_nothing(self):
        cache = ChunkCache(budget_bytes=0)
        cache.put(("p", 1, 1), b"")
        assert len(cache) == 0 and cache.get(("p", 1, 1)) is None

    def test_clear_empties_and_keeps_counters(self):
        cache = ChunkCache()
        cache.put(("p", 1, 1), bytes(10))
        cache.get(("p", 1, 1))
        cache.clear()
        assert len(cache) == 0 and cache.stats.resident_bytes == 0
        assert cache.stats.hits == 1

    def test_default_budget_bounds_the_entry_count(self):
        # The per-entry overhead is what stops a tiny-file workload from
        # holding tens of thousands of entries under a byte budget.
        assert BUDGET_BYTES // ENTRY_OVERHEAD_BYTES <= 8192

    @given(
        st.integers(0, 6 * KIB),
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3 * KIB)), max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_cost_never_exceeds_budget(self, budget, operations):
        cache = ChunkCache(budget_bytes=budget)
        for offset, size in operations:
            if cache.get(("p", 1, offset)) is None:
                cache.put(("p", 1, offset), bytes(size))
            held = sum(len(raw) + KIB for raw in cache._entries.values())
            assert cache.stats.resident_bytes == held <= budget


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
    """A warehouse whose every chunk of ``t`` is cached."""
    dw = _loaded()
    _scan(dw)
    before = dw.context.chunk_cache.stats.misses
    _scan(dw)
    assert dw.context.chunk_cache.stats.misses == before, "second scan must be all hits"
    return dw


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
        off.context.chunk_cache = ChunkCache(budget_bytes=0)
        for dw in (warm, cleared, off):
            _scan(dw)
        cleared.context.chunk_cache.clear()
        batches = [_scan(dw) for dw in (warm, cleared, off)]
        assert warm.context.chunk_cache.stats.hits > 0
        assert cleared.context.chunk_cache.stats.hits == 0
        assert len(off.context.chunk_cache) == 0
        for dw, batch in zip((cleared, off), batches[1:]):
            assert dw.clock.now == warm.clock.now
            assert dw.store.meter.requests == warm.store.meter.requests
            assert dw.store.meter.bytes_read == warm.store.meter.bytes_read
            for name, values in batches[0].items():
                assert batch[name].tolist() == values.tolist()
        assert warm.store.meter.requests["get"] >= 2 * len(_files(warm))


class TestLifecycle:
    def test_recovery_leaves_the_cache_empty(self, warm):
        cache = warm.context.chunk_cache
        assert len(cache) > 0
        RecoveryManager(warm.context, sto=warm.sto).recover()
        assert len(cache) == 0 and cache.stats.resident_bytes == 0
        assert len(_scan(warm)["k"]) == ROWS

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
        config = small_config()
        config.telemetry.metrics = True
        dw = _loaded(config)
        _scan(dw)
        _scan(dw)
        stats = dw.context.chunk_cache.stats
        metrics = dw.telemetry.metrics
        assert stats.hits > 0 and stats.misses > 0
        assert metrics.value("pagefile.chunk_cache.hits") == stats.hits
        assert metrics.value("pagefile.chunk_cache.misses") == stats.misses
        assert metrics.value("pagefile.chunk_cache.evictions") == stats.evictions
        assert metrics.value("pagefile.chunk_cache.resident_bytes") == stats.resident_bytes
        line = (
            f"chunk cache: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.evictions} evictions, {stats.resident_bytes} B resident"
        )
        assert line in dw.context.introspection.report()

    def test_metering_off_records_no_metrics(self):
        config = small_config()
        config.telemetry.metrics = False
        dw = _loaded(config)
        _scan(dw)
        _scan(dw)
        assert dw.context.chunk_cache.stats.hits > 0
        assert dw.telemetry.metrics.value("pagefile.chunk_cache.hits") == 0
