"""Wait statistics end to end: recording, attribution, DMVs, the commit
lock's busy horizon, crash hygiene, and the zero-cost disabled path.

The collector is exercised both directly (unit tests over a bare
``SimulatedClock``) and the way a user reaches it — SQL statements in,
``sys.dm_wait_stats`` / ``sys.dm_exec_query_waits`` rows out — plus the
contention model that motivates the whole subsystem: concurrent commits
queueing on the commit lock's busy horizon (``txn.commit_hold_s``).
"""

import json

import pytest

from repro import PolarisConfig, Warehouse
from repro.chaos import RecoveryManager, SimulatedCrash
from repro.common.errors import PolarisError
from repro.common.clock import SimulatedClock
from repro.common.config import TelemetryConfig
from repro.service import Gateway
from repro.sql.runner import SqlSession
from repro.sqldb.locks import CommitLock
from repro.telemetry import WAIT_NAMES, Telemetry, WaitStats, fingerprint
from repro.telemetry.names import NAME_RE
from repro.telemetry.scope import Frame


def waits_config(**overrides):
    config = PolarisConfig()
    config.telemetry.wait_stats_enabled = True
    for key, value in overrides.items():
        section, __, attr = key.partition("__")
        if attr:
            setattr(getattr(config, section), attr, value)
        else:
            setattr(config.telemetry, key, value)
    return config


class TestTaxonomy:
    def test_wait_names_are_well_formed(self):
        assert WAIT_NAMES, "the taxonomy must not be empty"
        for kind, meaning in WAIT_NAMES.items():
            assert NAME_RE.match(kind), kind
            assert meaning.strip(), f"{kind} has no meaning"

    def test_unregistered_kind_rejected(self):
        stats = WaitStats(SimulatedClock())
        with pytest.raises(ValueError):
            stats.record_wait("made_up_kind", 1.0)
        with pytest.raises(ValueError):
            stats.waiting("made_up_kind")

    def test_negative_wait_rejected(self):
        stats = WaitStats(SimulatedClock())
        with pytest.raises(ValueError):
            stats.record_wait("commit_lock", -0.1)


class TestRecording:
    def test_record_wait_folds_immediately(self):
        stats = WaitStats(SimulatedClock())
        stats.record_wait("commit_lock", 0.5)
        stats.record_wait("commit_lock", 1.5)
        assert stats.wait_count("commit_lock") == 2
        assert stats.total_wait_s("commit_lock") == 2.0
        (row,) = stats.wait_stats_rows()
        assert row["wait_kind"] == "commit_lock"
        assert row["max_wait_s"] == 1.5
        assert row["mean_wait_s"] == 1.0

    def test_waiting_scope_charges_clock_delta(self):
        clock = SimulatedClock()
        stats = WaitStats(clock)
        with stats.waiting("storage_retry"):
            clock.advance(2.5)
        assert stats.wait_count("storage_retry") == 1
        assert stats.total_wait_s("storage_retry") == 2.5
        assert stats.inflight_count == 0

    def test_waiting_scope_folds_on_ordinary_exception(self):
        clock = SimulatedClock()
        stats = WaitStats(clock)
        with pytest.raises(RuntimeError):
            with stats.waiting("storage_retry"):
                clock.advance(1.0)
                raise RuntimeError("retry gave up")
        # The time was genuinely spent stalled: it still counts.
        assert stats.total_wait_s("storage_retry") == 1.0
        assert stats.inflight_count == 0

    def test_attribution_stacks(self):
        stats = WaitStats(SimulatedClock())
        with stats.scope.enter(tenant="acme", workload_class="etl"):
            with stats.scope.enter(query_hash="deadbeef") as frame:
                # A frame inherits whatever it does not set.
                assert frame == Frame("acme", "etl", "deadbeef")
                stats.record_wait("commit_lock", 1.0)
        assert stats.scope.current == Frame()
        stats.record_wait("commit_lock", 2.0)  # unattributed
        (row,) = stats.wait_stats_rows()
        assert row["tenants"] == "acme"
        assert row["workload_classes"] == "etl"
        (qrow,) = stats.query_waits_rows()
        assert qrow["query_hash"] == "deadbeef"
        assert qrow["waits"] == 1
        assert qrow["total_wait_s"] == 1.0

    def test_explicit_attribution_overrides_stack(self):
        stats = WaitStats(SimulatedClock())
        with stats.scope.enter(tenant="acme", workload_class="etl"):
            stats.record_wait(
                "queue_deadline", 3.0, tenant="other", workload_class="adhoc"
            )
        (row,) = stats.wait_stats_rows()
        assert row["tenants"] == "other"
        assert row["workload_classes"] == "adhoc"

    def test_snapshot_is_deterministic_across_same_seed_runs(self):
        def run(seed):
            clock = SimulatedClock()
            stats = WaitStats(clock, seed=seed)
            for i in range(200):
                stats.record_wait("commit_lock", 0.01 * (i % 17))
                stats.record_wait("dcp_dispatch", 0.02 * (i % 5))
            return json.dumps(stats.snapshot(), sort_keys=True)

        assert run(7) == run(7)


def observed_lock(hold_s):
    """A commit lock observed by a wait-stats-only Telemetry."""
    clock = SimulatedClock()
    telemetry = Telemetry(clock, TelemetryConfig(wait_stats_enabled=True))
    lock = CommitLock(clock=clock)
    lock.configure(hold_s, telemetry)
    return clock, telemetry.waits, lock


class TestCommitLockHorizon:
    def test_hold_zero_never_waits(self):
        clock, stats, lock = observed_lock(0.0)
        for txid in range(1, 5):
            with lock.held(txid):
                pass
        assert stats.wait_count("commit_lock") == 0
        assert lock.total_wait_s == 0.0

    def test_back_to_back_commits_queue_on_the_hold(self):
        clock, stats, lock = observed_lock(0.5)
        with lock.held(1):
            pass
        # The second commit arrives inside the first's busy horizon and
        # must wait it out; the clock advances by the residual hold.
        before = clock.now
        with lock.held(2):
            pass
        assert clock.now - before == pytest.approx(0.5)
        assert stats.wait_count("commit_lock") == 1
        assert stats.total_wait_s("commit_lock") == pytest.approx(0.5)
        assert lock.acquisitions == 2
        assert lock.total_hold_s == pytest.approx(1.0)

    def test_spaced_commits_do_not_wait(self):
        clock, stats, lock = observed_lock(0.5)
        with lock.held(1):
            pass
        clock.advance(1.0)  # past the busy horizon
        with lock.held(2):
            pass
        assert stats.wait_count("commit_lock") == 0

    def test_holder_visible_while_held(self):
        lock = CommitLock(clock=SimulatedClock())
        assert not lock.is_held and lock.holder_txid is None
        with lock.held(42):
            assert lock.is_held
            assert lock.holder_txid == 42
        assert not lock.is_held


class TestEndToEnd:
    def test_sql_waits_reach_both_dmvs(self):
        """Commit contention from SQL lands in dm_wait_stats and joins
        dm_exec_query_stats through dm_exec_query_waits."""
        config = waits_config(
            telemetry__query_store_enabled=True, txn__commit_hold_s=0.5
        )
        dw = Warehouse(config=config, auto_optimize=False)
        sql = SqlSession(dw.session())
        sql.execute("CREATE TABLE t (id BIGINT, v DOUBLE)")
        insert = "INSERT INTO t (id, v) VALUES (1, 1.0)"
        for _ in range(4):
            sql.execute(insert)

        session = dw.session()
        stats_rows = session.sql(
            "SELECT wait_kind, waits, total_wait_s FROM sys.dm_wait_stats"
        )
        kinds = list(stats_rows["wait_kind"])
        assert "commit_lock" in kinds
        idx = kinds.index("commit_lock")
        assert int(stats_rows["waits"][idx]) >= 3
        assert float(stats_rows["total_wait_s"][idx]) > 0

        query_rows = session.sql(
            "SELECT query_hash, wait_kind, waits FROM sys.dm_exec_query_waits"
        )
        insert_hash = fingerprint(insert)
        pairs = list(
            zip(query_rows["query_hash"], query_rows["wait_kind"])
        )
        assert (insert_hash, "commit_lock") in pairs
        # The fingerprint joins against the query store's aggregates.
        stats = session.sql(
            "SELECT query_hash, executions FROM sys.dm_exec_query_stats"
        )
        assert insert_hash in list(stats["query_hash"])

    def test_one_wait_carries_tenant_class_and_fingerprint(self):
        """Inside a gateway request's SQL statement one wait record holds
        all three attributions; a second statement of the same request
        keeps the tenant and gets its own fingerprint; failures leave the
        scope empty."""
        config = waits_config(
            enabled=True,
            telemetry__query_store_enabled=True,
            txn__commit_hold_s=0.5,
        )
        dw = Warehouse(config=config, auto_optimize=False)
        scope = dw.telemetry.scope
        gateway = Gateway(dw.context)
        insert = "INSERT INTO t (id, v) VALUES (1, 1.0)"
        delete = "DELETE FROM t WHERE id = 1"

        def two_statements(session):
            session.sql(insert)
            session.sql(delete)

        gateway.submit("acme", "transactional", "CREATE TABLE t (id BIGINT, v DOUBLE)")
        request = gateway.submit("acme", "transactional", two_statements)
        gateway.run()
        assert request.status == "completed"
        by_hash = {
            span.attributes["query_hash"]: span.attributes
            for span in dw.telemetry.spans
            if span.name == "wait.commit_lock"
        }
        assert fingerprint(insert) != fingerprint(delete)
        for text in (insert, delete):
            record = by_hash[fingerprint(text)]
            assert record["tenant"] == "acme"
            assert record["workload_class"] == "transactional"
        assert scope.current == Frame()

        with pytest.raises(PolarisError):
            SqlSession(dw.session()).execute("SELECT nope FROM t")
        assert scope.current == Frame()
        failed = gateway.submit("acme", "transactional", "SELECT nope FROM t")
        gateway.run()
        assert failed.status == "failed"
        assert scope.current == Frame()

    def test_waits_metrics_mirrored(self):
        config = waits_config(
            metrics=True, txn__commit_hold_s=0.5
        )
        dw = Warehouse(config=config, auto_optimize=False)
        sql = SqlSession(dw.session())
        sql.execute("CREATE TABLE t (id BIGINT, v DOUBLE)")
        for _ in range(3):
            sql.execute("INSERT INTO t (id, v) VALUES (1, 1.0)")
        metrics = dw.telemetry.metrics
        recorded = metrics.value("waits.recorded", kind="commit_lock")
        assert recorded and recorded >= 2
        assert metrics.value("sqldb.commit_lock_acquisitions") >= 3

    def test_disabled_means_none_and_no_rows(self):
        dw = Warehouse(config=PolarisConfig(), auto_optimize=False)
        assert dw.telemetry.waits is None
        batch = dw.session().sql("SELECT * FROM sys.dm_wait_stats")
        assert len(batch["wait_kind"]) == 0


class TestCrashHygiene:
    def test_crash_leaves_scope_open_and_recovery_scavenges(self):
        dw = Warehouse(config=waits_config(metrics=True), auto_optimize=False)
        waits = dw.telemetry.waits
        clock = dw.context.clock
        with pytest.raises(SimulatedCrash):
            with waits.waiting("storage_retry"):
                clock.advance(1.0)
                raise SimulatedCrash("test.crash.site")
        # The dead process never closed the scope: nothing folded.
        assert waits.inflight_count == 1
        assert waits.wait_count("storage_retry") == 0

        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.scavenged == {"waits": 1}
        assert not report.clean
        assert waits.inflight_count == 0
        # Discarded for good: the aggregates never saw the orphan.
        assert waits.wait_count("storage_retry") == 0
        assert (
            dw.telemetry.metrics.value("recovery.scavenged", participant="waits")
            == 1.0
        )

    def test_scavenged_scope_never_double_counts(self):
        clock = SimulatedClock()
        stats = WaitStats(clock)
        scope = stats.waiting("sto_schedule")
        scope.__enter__()
        clock.advance(1.0)
        assert stats.scavenge() == 1
        # Folding the stale scope after scavenge is a no-op.
        scope.__exit__(None, None, None)
        assert stats.wait_count("sto_schedule") == 0

    def test_clean_recovery_reports_zero(self):
        dw = Warehouse(config=waits_config(), auto_optimize=False)
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.scavenged == {"waits": 0}
        assert report.clean
