"""Tests for the crash sweep on the randomized driver."""

import pytest

from repro.chaos import (
    CRASHPOINTS,
    ChaosController,
    SimulatedCrash,
    run_crash_sweep,
    run_driver,
)
from repro.chaos.harness import (
    RECOVERY_SITES,
    STEP_RUNS,
    WORKLOAD_SITES,
    Driver,
    run_site,
)
from repro.sqldb import system_tables
from repro.sto import orchestrator


@pytest.fixture(scope="module")
def sweep():
    return run_crash_sweep(seed=0)


def lines_of(result, sites):
    return [line for line in result.summary() if line.split(":")[0].split(" in ")[0] in sites]


class TestCrashSweep:
    def test_full_sweep_crashes_and_recovers_every_site(self, sweep):
        result = sweep
        assert len(result.sites) == len(WORKLOAD_SITES) + len(STEP_RUNS)
        assert set(WORKLOAD_SITES) | set(RECOVERY_SITES) == set(CRASHPOINTS)
        problems = [
            f"{site.label}: {problem}"
            for site in result.failures
            for problem in site.problems
        ]
        assert result.ok, "\n".join(problems)
        for site in result.sites:
            assert site.crashed_at_step, f"{site.label} never fired"
            if site.op:
                assert site.crashed_at_step.endswith(f":{site.op}")
            assert site.recovery is not None

    def test_every_commit_path_site_crashes_the_two_table_commit(self):
        commit_path = {
            site for site in WORKLOAD_SITES
            if site.startswith(("fe.commit.", "sqldb.commit."))
        }
        assert {site for site, op in STEP_RUNS if op == "commit"} == commit_path
        ops = Driver(seed=0).ops()
        assert {op for __, op in STEP_RUNS} <= set(ops)

    def test_swallowed_crash_fails_the_site(self, monkeypatch):
        # A handler on the crash path that turns the crash into a return:
        # the statement completes, so only the raised-vs-caught count
        # can tell the process was supposed to be dead.
        real = orchestrator.run_checkpoint

        def swallowing(context, table_id):
            try:
                return real(context, table_id)
            except SimulatedCrash:
                return None

        monkeypatch.setattr(orchestrator, "run_checkpoint", swallowing)
        site = "sto.checkpoint.before_blob_put"
        result = run_crash_sweep(seed=0, sites=[site])
        assert [run.op for run in result.sites] == ["", "checkpoint_on_commit"]
        for run in result.sites:
            assert run.crashed_at_step == ""
            assert run.problems == [
                f"crash raised at {site} but swallowed before it reached "
                "the harness"
            ]

    def test_sweep_is_deterministic(self, sweep):
        subset = ["fe.commit.after_sqldb_commit", "sto.publish.before_log_write"]
        again = run_crash_sweep(seed=0, sites=subset).summary()
        assert again == lines_of(sweep, subset)

    def test_single_site_runner_matches_sweep(self, sweep):
        site = "fe.write.after_manifest_flush"
        assert [run_site(site, seed=0).summary()] == lines_of(sweep, [site])


class TestDoubleCrash:
    def test_recovery_sites_registered(self):
        assert RECOVERY_SITES == (
            "recovery.catalog.after_reconcile",
            "recovery.in_doubt.after_resolve",
            "recovery.participant.after_scavenge",
            "recovery.publish.after_complete",
            "recovery.staged.after_discard",
        )

    def test_double_crash_workload_site_recovers(self):
        result = run_site(
            "fe.commit.after_sqldb_commit", seed=0, double_crash=True, op="commit"
        )
        assert result.ok, "\n".join(result.problems)

    def test_double_crash_gateway_site_recovers(self):
        result = run_site("service.admit.after_enqueue", seed=0, double_crash=True)
        assert result.ok, "\n".join(result.problems)

    def test_double_crash_is_deterministic(self):
        site = "sto.checkpoint.after_blob_put"
        first = run_site(site, seed=5, double_crash=True).summary()
        second = run_site(site, seed=5, double_crash=True).summary()
        assert first == second

    def test_recovery_site_cannot_be_armed_directly(self):
        with pytest.raises(ValueError):
            run_site("recovery.staged.after_discard", seed=0)


class TestWorkloadOracle:
    def test_workload_completes_without_chaos(self):
        driver = run_driver(seed=0, ops=40)
        assert not driver.problems, "\n".join(driver.problems)
        counts = {
            name: driver.sessions[0].table_snapshot(name).live_rows
            for name in Driver.tables
        }
        assert counts == {t: len(rows) for t, rows in driver.model.committed.items()}


class TestLongevity:
    """The fault soak is the driver's storage-fault case: every op is
    checked against the model, and the battery runs at the end."""

    def test_longevity_with_faults_stays_consistent(self):
        driver = run_driver(seed=0, ops=120, storage_failure_rate=0.02)
        assert not driver.problems, "\n".join(driver.problems)
        assert driver.context.store.faults.injected > 0
        assert driver.outcomes["completed"] >= 100

    def test_longevity_is_deterministic(self):
        def fingerprint():
            driver = run_driver(seed=3, ops=40, storage_failure_rate=0.05)
            return driver.outcomes, driver.context.store.faults.injected, driver.problems

        assert fingerprint() == fingerprint()


class TestTheModelCatches:
    def test_a_torn_two_table_commit(self, monkeypatch):
        # Only the first table's manifest row of a multi-table commit is
        # installed: each table alone is a state some commit could have
        # left, so only a check across both tables sees it.
        real = system_tables.insert_manifest
        stamped = set()

        def first_table_only(txn, table_id, name, sequence_id, *rest):
            if sequence_id not in stamped:
                stamped.add(sequence_id)
                real(txn, table_id, name, sequence_id, *rest)

        monkeypatch.setattr(system_tables, "insert_manifest", first_table_only)
        driver = Driver(seed=0)
        driver.run(200)  # stops at the first problem
        assert driver.problems and "differs from the model" in driver.problems[0]

    def test_an_acknowledged_update_keeps_its_values_across_a_crash(self):
        # The UPDATE returned, so recovery must serve its values; the row
        # count alone cannot tell them from the old ones.
        driver = Driver(seed=0)
        driver.op_insert(0, "events")
        driver._touch_events(0)
        assert not driver.problems
        controller = ChaosController(seed=0).arm("fe.commit.before_validation")
        with controller, pytest.raises(SimulatedCrash):
            driver.op_insert(0, "orders")
        driver.restart()
        driver.battery()
        driver.finish()
        assert not driver.problems, "\n".join(driver.problems)

    def test_the_crashed_commit_may_land_whole_or_not_at_all(self, sweep):
        # after_install lands the commit (recovery finds it installed);
        # before_validation loses it.  Both are states the model allows.
        runs = {run.label: run for run in sweep.sites}
        landed = runs["sqldb.commit.after_install in commit"]
        lost = runs["fe.commit.before_validation in commit"]
        assert landed.ok and lost.ok
        assert landed.recovery.in_doubt_committed == 1
        assert lost.recovery.in_doubt_committed == 0
