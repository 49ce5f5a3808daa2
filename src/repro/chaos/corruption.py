"""Corruption sweep: every fault class against every blob kind, end to end.

The sweep (:func:`run_corruption_sweep`) is the integrity counterpart of
the crash sweep: instead of killing the process, it hands it wrong bytes.
Four scenario families cover the corruption fault classes of
:mod:`repro.storage.failures` against every blob kind the deployment
persists (data files, deletion vectors, manifests, checkpoints, published
Delta logs):

* **at-rest rot** — a committed blob is damaged in place (``bit_flip`` /
  ``torn_write``) on a fresh deployment per scenario.  The normal read
  path must raise :class:`~repro.common.errors.IntegrityError` (never
  silently serve wrong bytes), an STO scrub must quarantine the blob and
  either repair it from redundant metadata (manifests with a covering
  checkpoint, checkpoints, Delta logs) or degrade the table to RED
  (data / DV loss), and an unrelated table must stay readable throughout.
* **read-side faults** — ``bit_flip`` / ``torn_write`` / ``stale_read``
  armed on ``get``: one read sees the fault (detected or, for a stale
  read with no previous version, degraded to a retryable
  :class:`~repro.common.errors.TransientStorageError`), the next read is
  clean, and a scrub finds the store intact — transient wrongness never
  becomes persistent state.
* **write-side rot** — corruption armed on the write path persists *past*
  the checksum stamp, modelling a blob rotting on its way to the store:
  a freshly inserted data file and a freshly committed manifest must
  both be detected, quarantined, and flagged RED (neither has a
  redundant copy yet).
* **post-truncation checkpoint** — once garbage collection has truncated
  the manifests a checkpoint covers, that checkpoint is the only record
  of them: rotting it must fail reads with
  :class:`~repro.common.errors.CheckpointLostError` (never serve the
  surviving tail as the whole table) and flag the table RED.

Everything is seeded; the per-scenario summary lines are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.chaos.harness import WORKLOAD_SCHEMA, _batch, chaos_config
from repro.common.errors import (
    CheckpointLostError,
    IntegrityError,
    PolarisError,
    TransientStorageError,
)
from repro.engine.expressions import BinOp, Col, Lit
from repro.fe.manifest_io import load_manifest_actions
from repro.sqldb import system_tables as catalog
from repro.sto.delta_reader import read_published_table
from repro.storage import paths
from repro.warehouse.warehouse import Warehouse

#: Every blob kind the deployment persists and the scrubber audits.
BLOB_KINDS = ("data", "dv", "manifest", "checkpoint", "delta_log")

#: Fault classes that persist damaged bytes (applied at rest per scenario).
AT_REST_FAULTS = ("bit_flip", "torn_write")

#: Whether the scrubber can rebuild each blob kind from redundant state.
REPAIRABLE = {
    "data": False,
    "dv": False,
    "manifest": True,  # the workload checkpoint covers the last manifest
    "checkpoint": True,
    "delta_log": True,
}

#: Live row counts the workload leaves behind (the readability oracle).
_ORDERS_ROWS = 500
_CONTROL_ROWS = 100


@dataclass
class CorruptionScenario:
    """Outcome of one (fault class, blob kind) scenario."""

    #: ``at_rest``, ``read``, or ``write``.
    mode: str
    blob_kind: str
    fault: str
    #: Whether the corruption surfaced as an error instead of wrong bytes.
    detected: bool = False
    #: Whether the scrub moved the damaged blob into ``quarantine/``.
    quarantined: bool = False
    #: ``repaired``, ``red``, or ``transient`` (read-side faults).
    outcome: str = ""
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every assertion held for this scenario."""
        return not self.problems

    def summary(self) -> str:
        """One deterministic line describing this scenario's outcome."""
        status = "ok" if self.ok else f"FAIL({len(self.problems)})"
        return (
            f"{self.mode}:{self.blob_kind}:{self.fault} "
            f"detected={self.detected} quarantined={self.quarantined} "
            f"outcome={self.outcome or '-'} {status}"
        )


@dataclass
class CorruptionSweepResult:
    """Outcome of a full corruption sweep."""

    seed: int
    scenarios: List[CorruptionScenario] = field(default_factory=list)
    #: Deployment-level problems not attributable to one scenario.
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every scenario and deployment-level check passed."""
        return not self.problems and all(s.ok for s in self.scenarios)

    @property
    def failures(self) -> List[CorruptionScenario]:
        """The scenarios whose assertions failed."""
        return [s for s in self.scenarios if not s.ok]

    def summary(self) -> List[str]:
        """Deterministic per-scenario summary lines."""
        return [s.summary() for s in self.scenarios]


# -- workload ---------------------------------------------------------------


def _build(seed: int) -> Tuple[Warehouse, Dict[str, int]]:
    """One deployment with every blob kind present and a control table.

    ``orders`` ends with 500 live rows across two commits (the second a
    multi-statement transaction, so its manifest blob has a previous
    version for ``stale_read`` to serve), deletion vectors from an
    update, a checkpoint covering its last manifest, and two published
    Delta versions.  ``control`` is the blast-radius oracle: no scenario
    touches it, so it must stay readable no matter what.
    """
    config = chaos_config(seed)
    warehouse = Warehouse(config=config, auto_optimize=False)
    warehouse.sto.auto_publish = True
    session = warehouse.session()
    table_ids = {
        name: session.create_table(
            name, WORKLOAD_SCHEMA, distribution_column="id"
        )
        for name in ("orders", "control")
    }
    session.insert("orders", _batch(0, 400))
    session.insert("control", _batch(0, _CONTROL_ROWS))
    session.begin()
    session.insert("orders", _batch(1000, 100))
    session.update(
        "orders",
        BinOp("<", Col("id"), Lit(50)),
        {"v": BinOp("+", Col("v"), Lit(1.0))},
    )
    session.commit()
    warehouse.sto.run_checkpoint(table_ids["orders"])
    return warehouse, table_ids


def _orders_rows(warehouse: Warehouse, table_id: int) -> Dict[str, Any]:
    """The orders manifest and checkpoint catalog rows, freshly read."""
    txn = warehouse.context.sqldb.begin()
    try:
        return {
            "manifests": catalog.manifests_for_table(txn, table_id),
            "checkpoints": catalog.checkpoints_for_table(txn, table_id),
        }
    finally:
        txn.abort()


def _target_path(warehouse: Warehouse, table_id: int, kind: str) -> str:
    """The deterministic blob each scenario of ``kind`` corrupts."""
    context = warehouse.context
    rows = _orders_rows(warehouse, table_id)
    if kind == "manifest":
        # The last manifest: the only one the workload checkpoint covers.
        return rows["manifests"][-1]["manifest_path"]
    if kind == "checkpoint":
        return rows["checkpoints"][-1]["path"]
    if kind == "delta_log":
        prefix = paths.published_root(context.database, "orders") + "/_delta_log/"
        return sorted(blob.path for blob in context.store.list(prefix))[-1]
    snapshot = context.cache.get(
        table_id, rows["manifests"][-1]["sequence_id"]
    )
    if kind == "data":
        return sorted(info.path for info in snapshot.files.values())[0]
    if kind == "dv":
        return sorted(info.path for info in snapshot.dvs.values())[0]
    raise ValueError(f"unknown blob kind {kind!r}")


def _check_control_readable(warehouse: Warehouse, problems: List[str]) -> None:
    """The untouched table must still serve its exact contents."""
    try:
        live = warehouse.session().table_snapshot("control").live_rows
    except PolarisError as exc:
        problems.append(f"control table unreadable: {exc}")
        return
    if live != _CONTROL_ROWS:
        problems.append(
            f"control table shows {live} rows, expected {_CONTROL_ROWS}"
        )


# -- scenario families ------------------------------------------------------


def _detect_at_rest(
    warehouse: Warehouse, table_id: int, kind: str, path: str
) -> Tuple[bool, List[str]]:
    """Drive the *natural* read path over a damaged blob of ``kind``.

    Returns ``(detected, problems)``.  Detection means the read raised
    :class:`IntegrityError`; wrong bytes served silently is the one
    unforgivable outcome.  A corrupt checkpoint additionally must degrade
    to manifest replay (checkpoints are an acceleration, never truth).
    """
    context = warehouse.context
    problems: List[str] = []
    detected = False
    try:
        if kind == "manifest":
            load_manifest_actions(context, path)
        elif kind == "delta_log":
            read_published_table(context, "orders")
        else:
            context.store.get(path)
        problems.append(
            f"corrupt {kind} blob {path} was read back without an error"
        )
    except IntegrityError:
        detected = True
    if kind == "checkpoint":
        # Degradation invariant: the snapshot must still reconstruct via
        # checkpoint-free manifest replay while the checkpoint is rotten.
        rows = _orders_rows(warehouse, table_id)
        context.cache.invalidate(table_id)
        try:
            snapshot = context.cache.get(
                table_id, rows["manifests"][-1]["sequence_id"]
            )
            if snapshot.live_rows != _ORDERS_ROWS:
                problems.append(
                    "manifest replay around the corrupt checkpoint shows "
                    f"{snapshot.live_rows} rows, expected {_ORDERS_ROWS}"
                )
        except PolarisError as exc:
            problems.append(
                f"corrupt checkpoint did not degrade to manifest replay: {exc}"
            )
    return detected, problems


def _run_at_rest(kind: str, fault: str, seed: int) -> CorruptionScenario:
    """One at-rest rot scenario: damage, detect, scrub, repair-or-RED."""
    scenario = CorruptionScenario(mode="at_rest", blob_kind=kind, fault=fault)
    warehouse, table_ids = _build(seed)
    context = warehouse.context
    table_id = table_ids["orders"]
    path = _target_path(warehouse, table_id, kind)
    context.store.damage(path, fault)
    context.cache.invalidate()

    scenario.detected, problems = _detect_at_rest(
        warehouse, table_id, kind, path
    )
    scenario.problems.extend(problems)

    report = warehouse.sto.run_scrub()
    record = next((r for r in report.records if r.path == path), None)
    if record is None:
        scenario.problems.append(f"scrub missed the corrupt {kind} blob {path}")
        return scenario
    scenario.quarantined = bool(record.quarantine_path)
    if not scenario.quarantined:
        scenario.problems.append("corrupt blob was not quarantined")
    elif not context.store.exists(record.quarantine_path):
        scenario.problems.append(
            f"quarantine path {record.quarantine_path} does not exist"
        )

    if REPAIRABLE[kind]:
        if record.action != "repaired":
            scenario.problems.append(
                f"{kind} blob should be repairable, scrub said {record.action}"
            )
            return scenario
        scenario.outcome = "repaired"
        if context.store.verify(path) is not None:
            scenario.problems.append("repaired blob fails verification")
        context.cache.invalidate()
        try:
            live = warehouse.session().table_snapshot("orders").live_rows
            if live != _ORDERS_ROWS:
                scenario.problems.append(
                    f"orders shows {live} rows after repair, "
                    f"expected {_ORDERS_ROWS}"
                )
        except PolarisError as exc:
            scenario.problems.append(f"orders unreadable after repair: {exc}")
        if kind == "delta_log" and read_published_table(context, "orders") is None:
            scenario.problems.append("published table unreadable after repair")
        if warehouse.sto.health.integrity_compromised(table_id):
            scenario.problems.append(
                "table flagged RED although the blob was repaired"
            )
    else:
        if record.action != "unrepairable":
            scenario.problems.append(
                f"{kind} loss cannot be repaired, scrub said {record.action}"
            )
        scenario.outcome = "red"
        if not warehouse.sto.health.integrity_compromised(table_id):
            scenario.problems.append(
                "unrepairable user-data loss did not flag the table RED"
            )
        metrics = context.telemetry.metrics
        if sum(metrics.values("storage.integrity_unrepairable").values()) < 1:
            scenario.problems.append(
                "storage.integrity_unrepairable counter never moved"
            )

    _check_control_readable(warehouse, scenario.problems)
    return scenario


def _run_read_side(seed: int) -> Tuple[List[CorruptionScenario], List[str]]:
    """Read-side fault grid on one shared deployment (nothing persists)."""
    scenarios: List[CorruptionScenario] = []
    warehouse, table_ids = _build(seed)
    context = warehouse.context
    table_id = table_ids["orders"]
    for kind in BLOB_KINDS:
        path = _target_path(warehouse, table_id, kind)
        for fault in AT_REST_FAULTS + ("stale_read",):
            scenario = CorruptionScenario(
                mode="read", blob_kind=kind, fault=fault
            )
            context.store.faults.arm_corruption(fault, path, operation="get")
            try:
                context.store.get(path)
                scenario.problems.append(
                    f"{fault} on get served wrong bytes for {path} silently"
                )
            except IntegrityError:
                # Wrong bytes under the current checksum: detected.
                scenario.detected = True
            except TransientStorageError:
                if fault != "stale_read":
                    scenario.problems.append(
                        f"{fault} on get degraded to a transient error"
                    )
                else:
                    # No previous version to serve: the replica says "not
                    # yet visible", which is retryable — equally safe.
                    scenario.detected = True
            try:
                context.store.get(path)
                scenario.outcome = "transient"
            except PolarisError as exc:
                scenario.problems.append(
                    f"blob still unreadable after the one-shot fault: {exc}"
                )
            scenarios.append(scenario)
    problems: List[str] = []
    report = warehouse.sto.run_scrub()
    if not report.clean:
        problems.append(
            "read-side faults must not persist, but the scrub found "
            f"{len(report.records)} corrupt blob(s)"
        )
    _check_control_readable(warehouse, problems)
    return scenarios, problems


def _run_write_side(seed: int) -> List[CorruptionScenario]:
    """Write-side rot: corruption persisted past the checksum stamp."""
    scenarios: List[CorruptionScenario] = []

    # A data file rotting on its way to the store: the insert's first put.
    scenario = CorruptionScenario(mode="write", blob_kind="data", fault="bit_flip")
    warehouse, table_ids = _build(seed)
    context = warehouse.context
    session = warehouse.session()
    context.store.faults.arm_corruption("bit_flip", "", operation="put")
    session.insert("orders", _batch(5000, 50))
    context.cache.invalidate()
    try:
        session.sql("SELECT * FROM orders")
        scenario.problems.append("scan over the rotten data file succeeded")
    except IntegrityError:
        scenario.detected = True
    report = warehouse.sto.run_scrub()
    bad = [r for r in report.records if r.kind == "data"]
    if not bad:
        scenario.problems.append("scrub missed the rotten data file")
    else:
        scenario.quarantined = all(r.quarantine_path for r in bad)
        if not scenario.quarantined:
            scenario.problems.append("rotten data file was not quarantined")
    scenario.outcome = "red"
    if not warehouse.sto.health.integrity_compromised(table_ids["orders"]):
        scenario.problems.append("rotten data file did not flag the table RED")
    _check_control_readable(warehouse, scenario.problems)
    scenarios.append(scenario)

    # A manifest rotting at commit: torn on the block-list write.  The
    # catalog row is durable, so this is a lost commit the moment the
    # torn bytes are noticed — publish, read, and scrub must all agree.
    scenario = CorruptionScenario(
        mode="write", blob_kind="manifest", fault="torn_write"
    )
    warehouse, table_ids = _build(seed)
    context = warehouse.context
    session = warehouse.session()
    context.store.faults.arm_corruption(
        "torn_write", "_manifests", operation="commit_block_list"
    )
    try:
        session.insert("control", _batch(9000, 50))
    except IntegrityError:
        # The auto-publisher read the torn manifest right back.
        scenario.detected = True
    if not scenario.detected:
        context.cache.invalidate()
        try:
            warehouse.session().table_snapshot("control")
            scenario.problems.append("torn manifest replayed without an error")
        except IntegrityError:
            scenario.detected = True
    report = warehouse.sto.run_scrub()
    bad = [r for r in report.records if r.kind == "manifest"]
    if not bad:
        scenario.problems.append("scrub missed the torn manifest")
    else:
        scenario.quarantined = all(r.quarantine_path for r in bad)
        if any(r.action == "repaired" for r in bad):
            scenario.problems.append(
                "torn uncheckpointed manifest cannot be repairable"
            )
    scenario.outcome = "red"
    if not warehouse.sto.health.integrity_compromised(table_ids["control"]):
        scenario.problems.append("lost commit did not flag the table RED")
    scenarios.append(scenario)
    return scenarios


def _run_post_truncation(seed: int) -> CorruptionScenario:
    """A checkpoint rots after GC truncated the manifests it covers."""
    scenario = CorruptionScenario(
        mode="truncated", blob_kind="checkpoint", fault="bit_flip"
    )
    warehouse, table_ids = _build(seed)
    context = warehouse.context
    table_id = table_ids["orders"]
    context.clock.advance(context.config.sto.retention_period_s + 60.0)
    warehouse.sto.run_gc()
    rows = _orders_rows(warehouse, table_id)
    if len(rows["manifests"]) != 1:
        scenario.problems.append(
            f"GC left {len(rows['manifests'])} orders manifests, expected "
            "the checkpoint to have let it truncate all but the newest"
        )
    path = rows["checkpoints"][-1]["path"]
    context.store.damage(path, scenario.fault)
    context.cache.invalidate()
    try:
        live = warehouse.session().table_snapshot("orders").live_rows
        scenario.problems.append(
            f"orders served {live} rows around its lost checkpoint, "
            f"expected {_ORDERS_ROWS} or an error"
        )
    except CheckpointLostError:
        scenario.detected = True

    report = warehouse.sto.run_scrub()
    record = next((r for r in report.records if r.path == path), None)
    if record is None:
        scenario.problems.append(f"scrub missed the corrupt checkpoint {path}")
        return scenario
    scenario.quarantined = bool(record.quarantine_path)
    if not scenario.quarantined:
        scenario.problems.append("corrupt checkpoint was not quarantined")
    if record.action != "unrepairable":
        scenario.problems.append(
            "a checkpoint whose manifests are truncated cannot be rebuilt, "
            f"scrub said {record.action}"
        )
    scenario.outcome = "red"
    if not warehouse.sto.health.integrity_compromised(table_id):
        scenario.problems.append("lost checkpoint did not flag the table RED")
    _check_control_readable(warehouse, scenario.problems)
    return scenario


def run_corruption_sweep(seed: int = 0) -> CorruptionSweepResult:
    """Run every corruption scenario; returns the per-scenario outcomes.

    The acceptance bar for each scenario: the corruption is *detected*
    (reads raise, never silently return wrong bytes), persistent damage
    is *quarantined*, and the deployment ends *repaired or RED* — with
    unrelated tables readable throughout.
    """
    result = CorruptionSweepResult(seed=seed)
    for kind in BLOB_KINDS:
        for fault in AT_REST_FAULTS:
            result.scenarios.append(_run_at_rest(kind, fault, seed))
    read_scenarios, read_problems = _run_read_side(seed)
    result.scenarios.extend(read_scenarios)
    result.problems.extend(read_problems)
    result.scenarios.extend(_run_write_side(seed))
    result.scenarios.append(_run_post_truncation(seed))
    for scenario in result.scenarios:
        if not scenario.detected and scenario.ok:
            scenario.problems.append(
                "scenario finished without the corruption being detected"
            )
    return result
