"""Tests for the systematic crash sweep and the longevity soak."""

import pytest

from repro.chaos import CRASHPOINTS, run_crash_sweep, run_longevity
from repro.chaos.harness import (
    RECOVERY_SITES,
    WORKLOAD_SITES,
    ChaosWorkload,
    run_site,
)


class TestCrashSweep:
    def test_full_sweep_crashes_and_recovers_every_site(self):
        result = run_crash_sweep(seed=0)
        assert len(result.sites) == len(WORKLOAD_SITES)
        assert set(WORKLOAD_SITES) | set(RECOVERY_SITES) == set(CRASHPOINTS)
        problems = [
            f"{site.site}: {problem}"
            for site in result.failures
            for problem in site.problems
        ]
        assert result.ok, "\n".join(problems)
        for site in result.sites:
            assert site.crashed_at_step, f"{site.site} never fired"
            assert site.recovery is not None

    def test_sweep_is_deterministic(self):
        subset = [
            "fe.commit.after_sqldb_commit",
            "sto.gc.mid_delete",
            "sto.compaction.before_commit",
        ]
        first = run_crash_sweep(seed=7, sites=subset).summary()
        second = run_crash_sweep(seed=7, sites=subset).summary()
        assert first == second

    def test_single_site_runner_matches_sweep(self):
        site = "fe.write.after_manifest_flush"
        alone = run_site(site, seed=0).summary()
        swept = run_crash_sweep(seed=0, sites=[site]).summary()
        assert swept == [alone]


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
        result = run_site("fe.commit.after_sqldb_commit", seed=0, double_crash=True)
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
        workload = ChaosWorkload(seed=0)
        assert workload.run_until_crash() is None
        assert workload.acknowledged == {"orders": 490, "events": 200}
        counts = {
            name: workload.session.table_snapshot(name).live_rows
            for name in ("orders", "events")
        }
        assert counts == workload.acknowledged
        workload.recorder.detach()

    def test_allowed_counts_window(self):
        workload = ChaosWorkload(seed=0)
        workload.acknowledged = {"orders": 400}
        workload.pending = {"orders": 100}
        assert workload.allowed_counts("orders") == {400, 500}
        assert workload.allowed_counts("events") == {0}


class TestLongevity:
    def test_longevity_with_faults_stays_consistent(self):
        result = run_longevity(seed=0, steps=60, failure_rate=0.02)
        assert result.ok, "\n".join(result.problems)
        assert result.ops_completed > 0
        assert result.faults_injected > 0

    def test_longevity_is_deterministic(self):
        def fingerprint():
            result = run_longevity(seed=3, steps=40, failure_rate=0.05)
            return (
                result.ops_completed,
                result.ops_failed,
                result.faults_injected,
                tuple(result.problems),
            )

        assert fingerprint() == fingerprint()
