"""Smoke test of polaris-bench itself: ``python -m pytest benchmarks/e2e -q``.

Runs every workload in ``--quick`` mode (about 1/20 of the operations) and
checks the harness's own promises: every metric named in BENCHMARK.json is
emitted with its unit, the exactly-repeating metrics are bit-identical for
one seed and move with another, and a traced run leaves no wrapper behind.
"""

import re

import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.compare import EXACT_METRICS
from benchmarks.e2e.trace import leftover_wrappers
from benchmarks.e2e.workloads import WORKLOADS

SPEC = harness.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Per-layer units that are clock readings of this machine, not counts.
WALL_UNITS = {"ms", "us", "ms/MiB"}


def quick(name, seed, trace):
    return harness.run_workload(name, seed, 0.0, trace, quick=True, out_dir=None)


def test_spec_names_and_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(WORKLOADS)
    metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(metrics + names)) == len(metrics + names)
    for name in metrics + names:
        assert NAME.match(name), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_emitted_and_exact_ones_repeat(name):
    first, again, other = quick(name, 3, False), quick(name, 3, False), quick(name, 4, False)
    for result in (first, again, other):
        assert result["correct"], result["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        for entry in SPEC["end_to_end"]:
            emitted = result["metrics"][entry["name"]]
            assert emitted["unit"] == entry["unit"]
            assert emitted["value"] > 0, entry["name"]
    for metric in EXACT_METRICS:
        assert first["metrics"][metric] == again["metrics"][metric], metric
    assert any(
        first["metrics"][metric] != other["metrics"][metric] for metric in EXACT_METRICS
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_counts_repeat_and_wrappers_are_removed(name):
    first, again = quick(name, 3, True), quick(name, 3, True)
    assert leftover_wrappers() == []
    for entry in SPEC["per_layer"]:
        metric = entry["name"]
        assert first["metrics"][metric]["unit"] == entry["unit"]
        if entry["unit"] not in WALL_UNITS and not metric.startswith("trace."):
            assert first["metrics"][metric] == again["metrics"][metric], metric
    assert first["correct"] and again["correct"]
