"""Tests for the crash sweep on the randomized driver."""

import os

import pytest

from repro.chaos import (
    CRASHPOINTS,
    ChaosController,
    SimulatedCrash,
    run_crash_sweep,
    run_driver,
)
from repro.chaos.__main__ import main
from repro.chaos.harness import (
    COMMIT_PATH_SITES,
    DRIVER_SITES,
    RECOVERY_SITES,
    SWEEP_EXTRA,
    SWEEP_OPS,
    WORKLOAD_SITES,
    Driver,
)
from repro.chaos.recovery import RecoveryManager
from repro.engine.expressions import BinOp, Col, Lit
from repro.engine.planner import TableScan
from repro.fe import optimizer_path
from repro.lst.checkpoint import decode_document
from repro.sqldb import system_tables
from repro.sto import orchestrator
from repro.storage.object_store import ObjectStore


@pytest.fixture(scope="module")
def sweep():
    return run_crash_sweep(seed=0)


def lines_of(result, sites):
    return [line for line in result.summary() if line.split(":")[0].split(" in ")[0] in sites]


class TestCrashSweep:
    def test_full_sweep_crashes_and_recovers_every_site(self, sweep):
        result = sweep
        assert set(WORKLOAD_SITES) | set(RECOVERY_SITES) == set(CRASHPOINTS)
        problems = [
            f"{site.label}: {problem}"
            for site in result.failures
            for problem in site.problems
        ]
        assert result.ok, "\n".join(problems)
        driven = [run for run in result.sites if run.op]
        # One crash per driver site, the rest each in a (site, op) stratum
        # of its own, then one per gateway site.
        assert {run.site for run in driven} == set(DRIVER_SITES)
        assert len({(run.site, run.op) for run in driven}) == len(DRIVER_SITES) + SWEEP_EXTRA
        assert len(driven) == len(DRIVER_SITES) + SWEEP_EXTRA
        gateway = [run.site for run in result.sites if not run.op]
        assert sorted(gateway) == sorted(set(WORKLOAD_SITES) - set(DRIVER_SITES))
        for site in result.sites:
            assert site.crashed_at_step, f"{site.label} never fired"
            assert site.recovery is not None

    def test_every_commit_path_site_crashes_the_two_table_commit(self, sweep):
        assert set(COMMIT_PATH_SITES) == {
            "fe.commit.before_validation",
            "fe.commit.after_writesets",
            "fe.commit.after_sqldb_commit",
            "sqldb.commit.after_validate",
            "sqldb.commit.after_install",
        }
        in_commit = {run.site for run in sweep.sites if run.op == "commit"}
        assert set(COMMIT_PATH_SITES) <= in_commit

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
        sites = ["sto.checkpoint.after_blob_put", "sto.checkpoint.before_blob_put"]
        result = run_crash_sweep(seed=0, sites=sites)
        assert {run.op for run in result.sites} == {"checkpoint", "checkpoint_on_commit"}
        for run in result.sites:
            assert run.crashed_at_step == ""
            assert run.problems == [
                f"crash raised at {run.site} but swallowed before it reached "
                "the harness"
            ]

    def test_sweep_is_deterministic(self, sweep, capsys):
        # Two runs of a seed print identical lines, and a run restricted
        # to some sites prints exactly the sweep's lines for them.
        subset = ["fe.commit.after_sqldb_commit", "fe.analyze.before_stats_put"]
        assert main(["--sweep", "--seed", "0", "--site", subset[0], "--site", subset[1]]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[:-2] == lines_of(sweep, subset)
        assert len(printed) == 4

    def test_single_site_runner_matches_sweep(self, sweep):
        site = "sqldb.commit.after_validate"
        assert run_crash_sweep(seed=0, sites=[site]).summary() == lines_of(sweep, [site])

    def test_a_child_that_dies_without_reporting_fails_the_sweep(self, monkeypatch):
        monkeypatch.setattr(Driver, "restart", lambda driver, double_crash=False: os._exit(3))
        result = run_crash_sweep(seed=0, sites=["fe.commit.after_sqldb_commit"])
        assert [run.problems for run in result.sites] == [
            ["the crash child exited with status 3 and no report"]
        ]
        assert not result.ok
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child outlives the sweep

    def test_a_site_no_op_hits_fails_the_sweep(self, monkeypatch):
        # ANALYZE no longer passes its crash site.
        monkeypatch.setattr(optimizer_path, "crashpoint", lambda name: None)
        site = "fe.analyze.before_stats_put"
        result = run_crash_sweep(seed=0, sites=[site])
        assert [run.problems for run in result.sites] == [
            [f"{site}: no op of the {SWEEP_OPS}-op stream of seed 0 hits it"]
        ]


@pytest.fixture(scope="module")
def double_crash():
    return run_crash_sweep(seed=0, sites=["fe.commit.after_sqldb_commit"], double_crash=True)


class TestDoubleCrash:
    def test_recovery_sites_registered(self):
        assert RECOVERY_SITES == (
            "recovery.catalog.after_reconcile",
            "recovery.in_doubt.after_resolve",
            "recovery.participant.after_scavenge",
            "recovery.publish.after_complete",
            "recovery.staged.after_discard",
        )

    def test_double_crash_workload_site_recovers(self, double_crash):
        assert [run.label for run in double_crash.sites] == [
            "fe.commit.after_sqldb_commit in commit#1"
        ]
        assert double_crash.ok, "\n".join(double_crash.sites[0].problems)

    def test_double_crash_gateway_site_recovers(self):
        result = run_crash_sweep(seed=0, sites=["service.admit.after_enqueue"], double_crash=True)
        assert result.ok, "\n".join(result.sites[0].problems)

    def test_double_crash_is_deterministic(self, double_crash):
        again = run_crash_sweep(seed=0, sites=["fe.commit.after_sqldb_commit"], double_crash=True)
        assert again.summary() == double_crash.summary()

    def test_recovery_site_cannot_be_armed_directly(self):
        with pytest.raises(ValueError):
            run_crash_sweep(seed=0, sites=["recovery.staged.after_discard"])


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

    def test_every_file_put_goes_to_a_fresh_path(self, monkeypatch):
        """Storage faults, task retries, crash restarts and a clone: no
        data or DV put ever targets a path an earlier put named, landed
        or not (files are named ``{txid:x}.{n:x}``, ``n`` fresh per put)."""
        puts = []
        real_put = ObjectStore.put

        def recorded(self, path, data, *args, **kwargs):
            if "/data/" in path or "/dv/" in path:
                puts.append(path)
            return real_put(self, path, data, *args, **kwargs)

        monkeypatch.setattr(ObjectStore, "put", recorded)
        driver = Driver(seed=5, storage_failure_rate=0.05)
        for site in ("fe.write.after_manifest_flush", "fe.commit.after_sqldb_commit"):
            driver.run(40)
            with driver.context.store.faults.paused():
                for sid in sorted(driver.model.txns):
                    driver.step("commit", sid)
                with ChaosController().arm(site), pytest.raises(SimulatedCrash):
                    driver.op_insert(0, "orders")
                driver.restart()
                driver.battery()
        driver.run(40)
        assert not driver.problems, "\n".join(driver.problems)
        # The clone is written past the driver's model, which knows its
        # two tables only.
        session = driver.warehouse.session()
        clone = session.clone_table("orders", "copy")
        batch = driver._fresh(40)
        with driver.context.store.faults.paused():
            session.insert("copy", batch)
            session.delete("copy", BinOp("<", Col("id"), Lit(60)))
            checkpoint = driver.warehouse.sto.run_checkpoint(clone)
            assert driver.warehouse.sto.run_compaction(clone).files_created
        assert driver.context.store.faults.injected > 0
        assert len(puts) == len(set(puts)) > 100
        # A cold read replays from the clone's checkpoint, whose entries
        # for the files it shares with orders name that table, and then
        # the compaction.
        document = decode_document(driver.context.store.get(checkpoint.path).data)
        owners = {f.get("table") for f in document["snapshot"]["files"]}
        assert owners == {None, driver.table_ids["orders"]}
        driver.context.cache.invalidate()
        got = session.query(TableScan("copy", ("id",)))["id"].tolist()
        orders = set(driver.model.committed["orders"]) | set(batch["id"].tolist())
        assert sorted(got) == sorted(i for i in orders if i >= 60)


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
        controller = ChaosController().arm("fe.commit.before_validation")
        with controller, pytest.raises(SimulatedCrash):
            driver.op_insert(0, "orders")
        driver.restart()
        driver.battery()
        driver.finish()
        assert not driver.problems, "\n".join(driver.problems)

    def test_the_sweep_alone_catches_a_lost_update(self, monkeypatch):
        # Recovery forgets a table's newest manifest when it changed
        # values but no row count: only a crash while an UPDATE is its
        # table's newest manifest shows it.  The sample crashes each
        # commit-path site inside a two-table commit, whose write to
        # events is an UPDATE: after_install lands it, so a recovery that
        # forgets it leaves neither the state before nor the one after.
        real = RecoveryManager._resolve_in_doubt

        def forgetting(manager, report):
            real(manager, report)
            context = manager._context
            txn = context.sqldb.begin()
            for table in system_tables.list_tables(txn):
                rows = system_tables.manifests_for_table(txn, table["table_id"])
                live = [context.cache.get(table["table_id"], row["sequence_id"]).live_rows
                        for row in rows[-2:]]
                if len(live) == 2 and live[0] == live[1]:
                    txn.delete(system_tables.MANIFESTS, (table["table_id"], rows[-1]["sequence_id"]))
            txn.commit()

        monkeypatch.setattr(RecoveryManager, "_resolve_in_doubt", forgetting)
        result = run_crash_sweep(seed=0, sites=["sqldb.commit.after_install"])
        failed = [run.problems for run in result.failures if run.op == "commit"]
        assert failed and "wrong v" in failed[0][0]

    def test_the_crashed_commit_may_land_whole_or_not_at_all(self, sweep):
        # after_install lands the commit (recovery finds it installed);
        # before_validation loses it.  Both are states the model allows.
        runs = {run.site: run for run in sweep.sites if run.op == "commit"}
        landed = runs["sqldb.commit.after_install"]
        lost = runs["fe.commit.before_validation"]
        assert landed.ok and lost.ok
        assert landed.recovery.in_doubt_committed == 1
        assert lost.recovery.in_doubt_committed == 0
