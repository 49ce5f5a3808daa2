"""Property-based tests for Z-ordering, the snapshot cache, and scheduling."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimulatedClock
from repro.common.config import DcpConfig, PolarisConfig
from repro.dcp import Scheduler, Task, WorkflowDag, WorkloadManager
from repro.dcp.costmodel import CostModel
from repro.engine.zorder import morton_codes, zorder_permutation
from repro.lst import AddDataFile, DataFileInfo, SnapshotCache, replay
from repro.storage import ObjectStore

# -- z-ordering ---------------------------------------------------------------

int_columns = st.lists(
    st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=200
)


@given(int_columns)
def test_zorder_single_column_preserves_value_order(values):
    arr = np.array(values, dtype=np.int64)
    codes = morton_codes([arr])
    # Codes are a monotone function of the value: sorting by code sorts
    # the values.
    by_code = arr[np.argsort(codes, kind="stable")]
    assert by_code.tolist() == sorted(values)


@given(int_columns, st.integers(min_value=1, max_value=3))
def test_zorder_permutation_is_a_permutation(values, dims):
    batch = {
        f"c{d}": np.roll(np.array(values, dtype=np.int64), d)
        for d in range(dims)
    }
    perm = zorder_permutation(batch, sorted(batch))
    assert sorted(perm.tolist()) == list(range(len(values)))


@given(int_columns)
def test_zorder_deterministic(values):
    arrs = [np.array(values, dtype=np.int64), np.array(values[::-1], dtype=np.int64)]
    np.testing.assert_array_equal(morton_codes(arrs), morton_codes(arrs))


@given(st.lists(st.sampled_from([0, 1, 2]), min_size=2, max_size=100))
def test_zorder_constant_column_is_neutral(other):
    """A constant key column must not perturb the order of the others."""
    arr = np.array(other, dtype=np.int64)
    constant = np.zeros(len(arr), dtype=np.int64)
    with_const = morton_codes([arr, constant])
    alone = morton_codes([arr])
    np.testing.assert_array_equal(
        np.argsort(with_const, kind="stable"), np.argsort(alone, kind="stable")
    )


# -- snapshot cache ≡ direct replay ------------------------------------------------


def _df(name):
    return DataFileInfo(name=name, path=f"p/{name}", num_rows=1, size_bytes=8,
                        distribution=0)


@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=20),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_cache_any_access_pattern_matches_replay(total, accesses, max_versions):
    history = [
        (seq, float(seq), [AddDataFile(_df(f"f{seq}"))])
        for seq in range(1, total + 1)
    ]

    def load_manifests(table_id, lo, hi):
        return [h for h in history if lo < h[0] <= hi]

    cache = SnapshotCache(
        load_manifests,
        lambda t, s: None,
        max_versions_per_table=max_versions,
    )
    for seq in accesses:
        seq = min(seq, total)
        got = cache.get(1, seq)
        expected = replay(history[:seq])
        assert got.files == expected.files
        assert got.sequence_id == expected.sequence_id


# -- scheduler determinism -------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5_000_000),  # est rows
            st.integers(min_value=0, max_value=4),  # depends on task i-k
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_scheduler_deterministic_and_respects_dependencies(specs, nodes):
    def build_and_run():
        config = PolarisConfig()
        config.dcp.fixed_nodes = nodes
        clock = SimulatedClock()
        store = ObjectStore(clock=clock, config=config.storage)
        scheduler = Scheduler(clock, store, CostModel(config.dcp))
        wlm = WorkloadManager(config.dcp)
        dag = WorkflowDag()
        for index, (rows, back) in enumerate(specs):
            deps = []
            if back and index - back >= 0:
                deps = [f"t{index - back}"]
            dag.add_task(
                Task(f"t{index}", lambda c: None, est_rows=rows), depends_on=deps
            )
        result = scheduler.execute(dag, wlm=wlm)
        return result

    first = build_and_run()
    second = build_and_run()
    assert first.finished_at == second.finished_at
    for task_id, run in first.runs.items():
        assert second.runs[task_id].start == run.start
        assert second.runs[task_id].finish == run.finish
    # Dependencies respected: a task starts at or after its upstream ends.
    for index, (rows, back) in enumerate(specs):
        if back and index - back >= 0:
            upstream = first.runs[f"t{index - back}"]
            downstream = first.runs[f"t{index}"]
            assert downstream.finish >= upstream.finish
