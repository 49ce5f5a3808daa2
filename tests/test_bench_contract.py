"""The frozen benchmark resolves ``src/`` callables by name; keep them.

``benchmarks/e2e/trace.py`` wraps a declared table of callables for its
traced pass and crashes if one is missing.  Resolving the whole table
here turns a rename that would break the benchmark into a tier-1
failure that takes seconds.
"""

import importlib

import pytest

from benchmarks.e2e.trace import TARGETS


@pytest.mark.parametrize("span,target", [(t[0], t[1]) for t in TARGETS])
def test_trace_target_resolves_to_a_callable(span, target):
    module_name, _, qualified = target.partition(":")
    resolved = importlib.import_module(module_name)
    for part in qualified.split("."):
        resolved = getattr(resolved, part)
    assert callable(resolved), f"{span}: {target} is not callable"


def test_tpch_power_seed0_matches_the_committed_answers():
    """One full-SF power run against ``expected/tpch_sf1_seed0.json``.

    ``--quick`` (what ``pytest benchmarks/e2e`` runs) skips the committed
    answers, so without this a kernel change that moves a result past the
    checksum's 2**-20 float quantum — or changes a row count — would first
    fail at the benchmark gate.  The expected file is never regenerated
    to make this pass.
    """
    from benchmarks.e2e.workloads.tpch_power import TpchPower

    workload = TpchPower(seed=0)
    workload.run_round(workload.setup(), 0)
    workload.final_check()
    assert len(workload.answers) == 22
    assert workload.problems == []
