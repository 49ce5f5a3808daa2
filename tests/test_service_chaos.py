"""Gateway crash recovery: every service.* site, scavenge reconciliation."""

import pytest

from repro import Warehouse
from repro.chaos.crashpoints import CRASHPOINTS
from repro.chaos.harness import chaos_config, run_gateway_site, run_site
from repro.chaos.recovery import RecoveryManager
from repro.service import Gateway

SERVICE_SITES = sorted(s for s in CRASHPOINTS if s.startswith("service."))


def test_all_three_gateway_sites_are_registered():
    assert set(SERVICE_SITES) == {
        "service.admit.after_enqueue",
        "service.dispatch.before_execute",
        "service.dispatch.after_execute",
    }


@pytest.mark.parametrize("site", SERVICE_SITES)
def test_crash_mid_queue_recovers_clean(site):
    result = run_gateway_site(site, seed=0)
    assert result.crashed_at_step == "gateway", f"{site} never fired"
    assert result.ok, "\n".join(result.problems)
    # The crash left real mid-queue state for recovery to reconcile.
    assert result.recovery.scavenged["gateway"] >= 1
    assert result.counts["ingest"] >= 50  # the post-recovery probe landed


@pytest.mark.parametrize("site", SERVICE_SITES)
def test_run_site_routes_service_sites_to_the_gateway_harness(site):
    summary = run_site(site, seed=0).summary()
    assert summary == run_gateway_site(site, seed=0).summary()
    assert f"/g" in summary


def test_gateway_site_summary_is_deterministic():
    site = "service.dispatch.before_execute"
    assert run_gateway_site(site, seed=3).summary() == run_gateway_site(
        site, seed=3
    ).summary()


def test_recovery_scavenges_queued_requests_without_a_crash():
    """Direct scavenge: requests admitted but never dispatched reconcile."""
    dw = Warehouse(config=chaos_config(0), auto_optimize=False)
    gateway = Gateway(dw.context)
    queued = [
        gateway.submit("tenant_a", "transactional", lambda s: None)
        for __ in range(3)
    ]
    report = RecoveryManager(dw.context, sto=dw.sto, strict=False).recover()
    assert report.scavenged["gateway"] == 3
    assert [r.status for r in queued] == ["scavenged"] * 3
    assert not gateway.requests_with_status("queued", "running")
    rows = dw.session().sql("SELECT status FROM sys.dm_requests")
    assert list(rows["status"]) == ["scavenged"] * 3
    # The gateway serves again after recovery with a fresh dispatcher.
    probe = gateway.submit("tenant_a", "transactional", lambda s: 42)
    gateway.run()
    assert probe.status == "completed"
    assert probe.result == 42


def test_recovery_scavenges_with_finished_ledger_at_cap():
    """Regression: recovery after a long-lived gateway filled its ledger.

    With ``finished_history_cap`` already reached, the first scavenged
    request evicts an old finished record; iterating the live request
    dict used to raise ``RuntimeError: dictionary changed size during
    iteration`` and abort recovery mid-pass.
    """
    config = chaos_config(0)
    config.service.finished_history_cap = 2
    dw = Warehouse(config=config, auto_optimize=False)
    gateway = Gateway(dw.context)
    for __ in range(3):
        gateway.submit("tenant_a", "transactional", lambda s: None)
    gateway.run()  # three completions fill the two-record ledger
    queued = [
        gateway.submit("tenant_a", "transactional", lambda s: None)
        for __ in range(3)
    ]
    report = RecoveryManager(dw.context, sto=dw.sto, strict=False).recover()
    assert report.scavenged["gateway"] == 3
    assert [r.status for r in queued] == ["scavenged"] * 3
    assert not gateway.requests_with_status("queued", "running")
    assert gateway.finished_count("scavenged") == 3
    # The view reflects only retained records, none of them in flight.
    rows = dw.session().sql("SELECT status FROM sys.dm_requests")
    assert len(rows["status"]) == 2
    assert all(s not in ("queued", "running") for s in rows["status"])


def test_recovery_without_gateway_reports_zero():
    dw = Warehouse(config=chaos_config(0), auto_optimize=False)
    report = RecoveryManager(dw.context, sto=dw.sto, strict=False).recover()
    assert "gateway" not in report.scavenged
    assert report.clean
