"""Schema-stability contract for every ``sys.dm_*`` view.

An independent literal copy of every view's schema, diffed against the
live catalog: a view added or removed (also while a warehouse is being
built), a column added, removed, retyped or reordered, or a view whose
populated rows lack a column fails here.  DMV schemas are a public SQL surface
and must change deliberately, together with this table and
``docs/OBSERVABILITY.md``.
"""

import numpy as np
import pytest

from repro import PolarisConfig, Warehouse
from repro.chaos import RecoveryManager
from repro.service import Gateway
from repro.telemetry import facade
from repro.telemetry.introspection import Introspector

#: Independent expected-schema table: view -> ordered (column, type).
#: Deliberately duplicates the VIEWS declarations — drift detection only
#: works when the two copies change in the same commit.
EXPECTED_SCHEMAS = {
    "sys.dm_transactions": (
        ("txid", "int64"),
        ("status", "string"),
        ("isolation", "string"),
        ("begin_seq", "int64"),
        ("begin_ts", "float64"),
        ("commit_seq", "int64"),
        ("units", "int64"),
        ("tables", "string"),
        ("rows_inserted", "int64"),
        ("rows_deleted", "int64"),
        ("reason", "string"),
    ),
    "sys.dm_storage_health": (
        ("table_id", "int64"),
        ("table_name", "string"),
        ("state", "string"),
        ("file_count", "int64"),
        ("total_rows", "int64"),
        ("deleted_rows", "int64"),
        ("low_quality_files", "int64"),
        ("low_quality_fraction", "float64"),
        ("dv_count", "int64"),
        ("pending_compaction", "bool"),
    ),
    "sys.dm_storage_integrity": (
        ("table_id", "int64"),
        ("table_name", "string"),
        ("path", "string"),
        ("kind", "string"),
        ("problem", "string"),
        ("action", "string"),
        ("quarantine_path", "string"),
        ("at", "float64"),
    ),
    "sys.dm_checkpoints": (
        ("table_id", "int64"),
        ("table_name", "string"),
        ("sequence_id", "int64"),
        ("path", "string"),
        ("created_at", "float64"),
    ),
    "sys.dm_store_operations": (
        ("operation", "string"),
        ("requests", "int64"),
        ("faults", "int64"),
        ("latency_count", "int64"),
        ("latency_mean_s", "float64"),
        ("latency_p50_s", "float64"),
        ("latency_p95_s", "float64"),
        ("latency_p99_s", "float64"),
        ("latency_max_s", "float64"),
    ),
    "sys.dm_recovery_history": (
        ("recovery_id", "int64"),
        ("at", "float64"),
        ("in_doubt_committed", "int64"),
        ("in_doubt_aborted", "int64"),
        ("staged_blocks_discarded", "int64"),
        ("publishes_completed", "int64"),
    ),
    "sys.dm_sessions": (
        ("session_id", "int64"),
        ("tenant", "string"),
        ("state", "string"),
        ("opened_at", "float64"),
        ("last_active_at", "float64"),
        ("requests", "int64"),
    ),
    "sys.dm_requests": (
        ("request_id", "int64"),
        ("session_id", "int64"),
        ("tenant", "string"),
        ("workload_class", "string"),
        ("priority", "int64"),
        ("status", "string"),
        ("submitted_at", "float64"),
        ("started_at", "float64"),
        ("finished_at", "float64"),
        ("queue_wait_s", "float64"),
        ("execute_s", "float64"),
        ("retry_after_s", "float64"),
        ("error", "string"),
    ),
    "sys.dm_metrics": (
        ("name", "string"),
        ("labels", "string"),
        ("kind", "string"),
        ("value", "float64"),
        ("count", "int64"),
        ("sum", "float64"),
        ("min", "float64"),
        ("mean", "float64"),
        ("max", "float64"),
        ("p50", "float64"),
        ("p95", "float64"),
        ("p99", "float64"),
    ),
    "sys.dm_metrics_history": (
        ("sample_id", "int64"),
        ("at", "float64"),
        ("metric", "string"),
        ("value", "float64"),
    ),
    "sys.dm_exec_query_stats": (
        ("query_hash", "string"),
        ("statement_kind", "string"),
        ("query_text", "string"),
        ("executions", "int64"),
        ("errors", "int64"),
        ("total_rows", "int64"),
        ("total_bytes_read", "int64"),
        ("total_sim_s", "float64"),
        ("mean_sim_s", "float64"),
        ("p50_s", "float64"),
        ("p95_s", "float64"),
        ("p99_s", "float64"),
        ("recent_p95_s", "float64"),
        ("baseline_p95_s", "float64"),
        ("regressions", "int64"),
        ("plan_count", "int64"),
        ("tenants", "string"),
        ("workload_classes", "string"),
        ("first_seen", "float64"),
        ("last_seen", "float64"),
    ),
    "sys.dm_exec_query_plans": (
        ("query_hash", "string"),
        ("plan_hash", "string"),
        ("executions", "int64"),
        ("first_seen", "float64"),
        ("last_seen", "float64"),
        ("plan_text", "string"),
    ),
    "sys.dm_exec_operator_stats": (
        ("query_hash", "string"),
        ("operator_id", "int64"),
        ("operator", "string"),
        ("executions", "int64"),
        ("est_rows", "float64"),
        ("actual_rows", "float64"),
        ("misestimate", "float64"),
        ("sim_time_s", "float64"),
        ("files", "int64"),
        ("files_pruned", "int64"),
        ("row_groups", "int64"),
        ("row_groups_pruned", "int64"),
    ),
    "sys.dm_wait_stats": (
        ("wait_kind", "string"),
        ("waits", "int64"),
        ("total_wait_s", "float64"),
        ("mean_wait_s", "float64"),
        ("max_wait_s", "float64"),
        ("p95_wait_s", "float64"),
        ("tenants", "string"),
        ("workload_classes", "string"),
    ),
    "sys.dm_exec_query_waits": (
        ("query_hash", "string"),
        ("wait_kind", "string"),
        ("waits", "int64"),
        ("total_wait_s", "float64"),
        ("max_wait_s", "float64"),
    ),
    "sys.dm_commit_lock": (
        ("is_held", "bool"),
        ("holder_txid", "int64"),
        ("acquisitions", "int64"),
        ("busy_until", "float64"),
        ("total_wait_s", "float64"),
        ("total_hold_s", "float64"),
    ),
    "sys.dm_table_stats": (
        ("table_id", "int64"),
        ("table_name", "string"),
        ("sequence_id", "int64"),
        ("row_count", "int64"),
        ("column_count", "int64"),
        ("analyzed_at", "float64"),
        ("source", "string"),
        ("feedback_factor", "float64"),
    ),
    "sys.dm_index_stats": (
        ("table_id", "int64"),
        ("table_name", "string"),
        ("index_name", "string"),
        ("column_name", "string"),
        ("sequence_id", "int64"),
        ("entries", "int64"),
        ("covered_files", "int64"),
        ("size_bytes", "int64"),
        ("built_at", "float64"),
        ("lookups", "int64"),
        ("files_pruned", "int64"),
    ),
}


def test_every_view_is_covered_exactly(monkeypatch):
    """Coverage completeness both ways: no view escapes the table, not
    even one registered while a fully wired warehouse is built."""
    assert set(EXPECTED_SCHEMAS) == set(Introspector.VIEWS)
    monkeypatch.setattr(facade, "SAMPLE_INTERVAL_S", 1.0)
    monkeypatch.setattr(facade, "WATCHDOG_ENABLED", True)
    config = PolarisConfig()
    config.telemetry.query_store_enabled = True
    config.telemetry.wait_stats_enabled = True
    dw = Warehouse(config=config)
    Gateway(dw.context)
    assert set(EXPECTED_SCHEMAS) == set(Introspector.VIEWS)
    assert set(EXPECTED_SCHEMAS) == set(dw.context.introspection.VIEWS)


@pytest.mark.parametrize("view", sorted(EXPECTED_SCHEMAS))
def test_schema_matches_expected(view):
    schema = Introspector.schema(view)
    declared = tuple((f.name, f.type) for f in schema.fields)
    assert declared == EXPECTED_SCHEMAS[view]


@pytest.mark.parametrize("view", sorted(EXPECTED_SCHEMAS))
def test_empty_view_batch_keeps_dtypes(view):
    """Every view materializes with schema dtypes even with zero rows."""
    dw = Warehouse(config=PolarisConfig(), auto_optimize=False)
    intro = dw.context.introspection
    batch = intro.batch(view)
    schema = Introspector.schema(view)
    assert list(batch) == [f.name for f in schema.fields]
    for field in schema.fields:
        assert batch[field.name].dtype == np.dtype(field.numpy_dtype)


def test_dm_exec_views_sql_queryable_when_disabled(config):
    """Query store off: the views answer SQL with zero rows, full schema."""
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    assert dw.telemetry.querystore is None
    for view in sorted(EXPECTED_SCHEMAS):
        if not view.startswith("sys.dm_exec_"):
            continue
        batch = session.sql(f"SELECT * FROM {view}")
        assert list(batch) == [c for c, _ in EXPECTED_SCHEMAS[view]]
        first = next(iter(batch.values()))
        assert len(first) == 0


def test_wait_views_sql_queryable_when_disabled(config):
    """Wait stats off: both wait views answer SQL empty with full schema."""
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    assert dw.telemetry.waits is None
    for view in ("sys.dm_wait_stats", "sys.dm_exec_query_waits"):
        batch = session.sql(f"SELECT * FROM {view}")
        assert list(batch) == [c for c, _ in EXPECTED_SCHEMAS[view]]
        first = next(iter(batch.values()))
        assert len(first) == 0


#: Views the ``populated`` deployment fills with at least one row: all of
#: them, so a dropped or retyped column fails on a non-empty view too.
POPULATED_VIEWS = tuple(sorted(EXPECTED_SCHEMAS))


@pytest.fixture(scope="module")
def populated():
    """One deployment with every optional collector on and real rows:
    SQL statements (query store), ANALYZE and CREATE INDEX, a gateway
    request, an attributed wait, sampled metrics, a recovery pass, and a
    bit-flipped checkpoint the scrubber repaired."""
    config = PolarisConfig()
    config.telemetry.query_store_enabled = True
    config.telemetry.wait_stats_enabled = True
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(facade, "SAMPLE_INTERVAL_S", 1.0)
        dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    session.sql("CREATE TABLE t (id BIGINT, v DOUBLE)")
    session.sql("INSERT INTO t (id, v) VALUES (1, 1.0), (2, 2.0)")
    session.sql("SELECT id FROM t WHERE v > 1.5")
    session.sql("ANALYZE t")
    session.sql("CREATE INDEX idx_t_id ON t (id)")
    gateway = Gateway(dw.context)
    request = gateway.submit("acme", "analytical", "SELECT v FROM t WHERE id = 2")
    gateway.run()
    assert request.status == "completed"
    dw.telemetry.waits.record_wait(
        "commit_lock", 0.25, tenant="acme", workload_class="etl",
        query_hash="abc123",
    )
    RecoveryManager(dw.context, sto=dw.sto).recover()
    (table,) = session.sql("SELECT table_id FROM sys.dm_storage_health")["table_id"]
    checkpoint = dw.sto.run_checkpoint(int(table))
    dw.store.damage(checkpoint.path, "bit_flip")
    assert dw.sto.run_scrub().repaired == 1
    dw.clock.advance(5.0)
    return dw, session, checkpoint


@pytest.mark.parametrize("view", POPULATED_VIEWS)
def test_populated_view_keeps_dtypes_through_sql(populated, view):
    """With rows present, SQL output keeps every declared column dtype."""
    __, session, __ = populated
    batch = session.sql(f"SELECT * FROM {view}")
    schema = Introspector.schema(view)
    assert list(batch) == [f.name for f in schema.fields]
    assert len(next(iter(batch.values()))) > 0, f"{view} returned no rows"
    for field in schema.fields:
        assert batch[field.name].dtype == np.dtype(field.numpy_dtype)


def test_scrub_repair_row_reaches_the_integrity_view(populated):
    dw, session, checkpoint = populated
    batch = session.sql("SELECT * FROM sys.dm_storage_integrity")
    assert batch["kind"].tolist() == ["checkpoint"]
    assert batch["action"].tolist() == ["repaired"]
    assert batch["path"].tolist() == [checkpoint.path]
    (quarantine_path,) = batch["quarantine_path"].tolist()
    assert dw.store.exists(quarantine_path), quarantine_path


def test_dm_commit_lock_reflects_lock_state(config):
    """sys.dm_commit_lock reports acquisitions from real commits."""
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    before = session.sql("SELECT acquisitions, is_held FROM sys.dm_commit_lock")
    assert int(before["acquisitions"][0]) == 0
    assert not bool(before["is_held"][0])
    session.sql("CREATE TABLE locked_t (id bigint, v double)")
    session.sql("INSERT INTO locked_t (id, v) VALUES (1, 2.5)")
    after = session.sql("SELECT acquisitions, is_held FROM sys.dm_commit_lock")
    assert int(after["acquisitions"][0]) > 0
    assert not bool(after["is_held"][0])
