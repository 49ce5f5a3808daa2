"""Randomized oracle tests: the chaos driver's stream against its model.

The driver (:mod:`repro.chaos.harness`) applies a seeded stream of named
ops — inserts, bulk loads, range and point deletes and updates, updates
that move rows to other keys, transactions over both tables in two
interleaved sessions, ANALYZE, CREATE INDEX, compactions, checkpoints,
the STO run inline, GC past retention, cache invalidation — to a
warehouse and to a dict model.  After every op both tables must match the
model exactly, through a SQL ``SELECT`` and a point lookup pruned to the
key's bucket; a commit may lose first-committer-wins only to a concurrent
rewrite of a table it updated or deleted rows of.  Storage and task
faults are two parameters of the same run: a statement that raised on
one must leave the state before it or after it, nothing else.  The crash
sweep (``tests/test_chaos_sweep.py``) runs the same stream.
"""

import pytest

from repro.chaos import run_driver
from repro.dcp import scheduler


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_randomized_against_oracle(seed):
    """Both conflict granularities, with and without the STO running on
    every commit and scan."""
    driver = run_driver(
        seed, ops=80, conflict_granularity="file" if seed % 2 else "table",
        auto_optimize=seed in (2, 3),
    )
    assert not driver.problems, "\n".join(driver.problems)
    assert driver.outcomes["completed"] >= 60


@pytest.mark.parametrize(
    "seed, task_faults, storage_faults",
    [
        pytest.param(10, 0.3, 0.0, id="10"),
        pytest.param(11, 0.3, 0.05, id="11"),
    ],
)
def test_randomized_with_failures_against_oracle(
    seed, task_faults, storage_faults, monkeypatch
):
    """Task faults, storage faults, or both: a statement that raised on
    one leaves the state before it or after it."""
    monkeypatch.setattr(scheduler, "TASK_FAILURE_RATE", task_faults)
    driver = run_driver(
        seed, ops=80, conflict_granularity="file" if seed % 2 else "table",
        auto_optimize=seed != 10, storage_failure_rate=storage_faults,
    )
    assert not driver.problems, "\n".join(driver.problems)
    assert driver.outcomes["completed"] >= 60
    assert driver.outcomes["faulted"] > 0


def test_a_failed_shortcut_write_does_not_reuse_a_delta_version():
    # Found by the driver: a transient fault on the shortcut put after a
    # Delta log write left the version counter behind, and the next
    # publish of the table raised BlobAlreadyExistsError on its log path.
    driver = run_driver(seed=12, ops=80, storage_failure_rate=0.05)
    assert not driver.problems, "\n".join(driver.problems)
