"""Named crash sites and the controller that fires them.

The crashpoint framework is the instrumentation half of ``repro.chaos``:
the FE commit/write paths, the SQL DB commit, and every STO job call
:func:`crashpoint` at the instants where a real process death would be
most damaging.  With no controller installed the call is a single global
read — production code paths pay effectively nothing.  A test or the
chaos harness installs a :class:`ChaosController`, arms a site (or a
seeded random schedule), and the next matching call raises
:class:`~repro.common.errors.SimulatedCrash`, which unwinds past every
normal error handler (it subclasses ``BaseException``) — exactly like a
process that stopped executing mid-protocol.

Every site must be registered in :data:`CRASHPOINTS`; the
``crashpoint-discipline`` rule in :mod:`repro.analysis` statically checks
that instrumented modules only use registered, literal, unique names.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.common.errors import SimulatedCrash

if TYPE_CHECKING:
    from repro.telemetry.facade import Telemetry

#: The crashpoint catalogue: every registered site, with the protocol
#: instant it models.  Names are ``<layer>.<operation>.<instant>``.
CRASHPOINTS: Dict[str, str] = {
    # -- FE write path (manifest assembly, Section 3.2.3) ------------------
    "fe.write.before_manifest_flush": (
        "insert statement: data files written, manifest block list not yet "
        "committed"
    ),
    "fe.write.after_manifest_flush": (
        "insert statement: manifest block list committed, statement result "
        "not yet returned"
    ),
    "fe.rewrite.before_manifest_flush": (
        "update/delete statement: rewritten manifest block staged, block "
        "list not yet committed"
    ),
    # -- FE validation phase (Section 4.1.2) -------------------------------
    "fe.commit.before_validation": (
        "commit requested: nothing sent to the SQL DB yet"
    ),
    "fe.commit.after_writesets": (
        "WriteSets upserts buffered, root catalog commit not yet issued"
    ),
    "fe.commit.after_sqldb_commit": (
        "catalog commit durable, commit events / publish steps not yet run"
    ),
    # -- SQL DB commit protocol (Section 4.1.2 steps 2-4) ------------------
    "sqldb.commit.after_validate": (
        "inside the commit lock: validation passed, writes not yet installed"
    ),
    "sqldb.commit.after_install": (
        "writes installed and lock released, engine bookkeeping (commit "
        "counter, active-registry removal) not yet done"
    ),
    # -- FE optimizer (ANALYZE / CREATE INDEX) -----------------------------
    "fe.analyze.before_stats_put": (
        "ANALYZE scanned the snapshot and computed statistics, catalog "
        "row not yet buffered in the transaction"
    ),
    "fe.index.after_file_put": (
        "CREATE INDEX wrote the index blob, catalog row not yet buffered "
        "— an orphaned index file recovery must scavenge"
    ),
    # -- STO: compaction (Section 5.1) -------------------------------------
    "sto.compaction.before_commit": (
        "compaction rewrote files and flushed its manifest, commit not yet "
        "issued"
    ),
    "sto.compaction.after_commit": (
        "compaction committed, result bookkeeping not yet done"
    ),
    # -- STO: checkpointer (Section 5.2) -----------------------------------
    "sto.checkpoint.before_blob_put": (
        "checkpoint computed, checkpoint blob not yet written"
    ),
    "sto.checkpoint.after_blob_put": (
        "checkpoint blob written, Checkpoints catalog row not yet committed"
    ),
    # -- STO: garbage collector (Section 5.3) ------------------------------
    "sto.gc.before_catalog_cleanup": (
        "GC classified files, manifest/checkpoint truncation not yet "
        "committed"
    ),
    "sto.gc.mid_delete": (
        "GC mid physical-delete scan: some expired/orphan blobs deleted, "
        "the rest not"
    ),
    # -- Service gateway (repro.service) -----------------------------------
    "service.admit.after_enqueue": (
        "request admitted into a class queue, submit result not yet "
        "returned to the client"
    ),
    "service.dispatch.before_execute": (
        "dispatcher popped a request, session not yet acquired and no "
        "statement started"
    ),
    "service.dispatch.after_execute": (
        "request's statement finished on the FE, completion not yet "
        "recorded in the ledger"
    ),
    # -- STO: publisher (Section 5.4) --------------------------------------
    "sto.publish.before_log_write": (
        "commit durable, Delta log entry not yet written"
    ),
    "sto.publish.after_log_write": (
        "Delta log entry written, publisher bookkeeping/shortcut not yet "
        "done"
    ),
    # -- Restart recovery (repro.chaos.recovery) ---------------------------
    # Recovery itself can die mid-pass; every step is idempotent, so a
    # re-entered pass repairs whatever the first attempt left behind.
    "recovery.in_doubt.after_resolve": (
        "recovery: in-doubt transactions resolved, staged blocks not yet "
        "discarded"
    ),
    "recovery.staged.after_discard": (
        "recovery: staged blocks discarded, catalog not yet reconciled "
        "against the store"
    ),
    "recovery.catalog.after_reconcile": (
        "recovery: catalog reconciled, caches not yet invalidated and "
        "missed publishes not yet completed"
    ),
    "recovery.publish.after_complete": (
        "recovery: missed publishes completed, no participant's process "
        "state scavenged yet"
    ),
    "recovery.participant.after_scavenge": (
        "recovery: one participant's process state scavenged (hit once "
        "per registered participant), the next one's not yet"
    ),
}

#: The currently installed controller (None almost always).
_ACTIVE: "Optional[ChaosController]" = None


def crashpoint(name: str) -> None:
    """Declare a crash site; dies here iff the active controller says so.

    The fast path (no controller installed) is one module-global read, so
    instrumented production paths are effectively free.  Site names must
    be literal members of :data:`CRASHPOINTS` — enforced statically by the
    ``crashpoint-discipline`` lint rule and dynamically by the controller.
    """
    controller = _ACTIVE
    if controller is not None:
        controller.on_crashpoint(name)


def active_controller() -> "Optional[ChaosController]":
    """The currently installed controller, if any (for tests/harness)."""
    return _ACTIVE


class ChaosController:
    """Decides, per crashpoint hit, whether the process dies there.

    Two firing modes, combinable:

    * **armed sites** — :meth:`arm` schedules a deterministic crash at the
      N-th hit of one named site (default: the next hit);
    * **random schedule** — ``crash_rate`` kills at each hit with the
      given probability from a PRNG seeded by ``seed``, so a "random"
      chaos run is exactly repeatable.

    Install with :meth:`install` (or use the instance as a context
    manager); only one controller can be active at a time.
    """

    def __init__(
        self,
        seed: int = 0,
        crash_rate: float = 0.0,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        self.seed = seed
        self.crash_rate = crash_rate
        self.telemetry = telemetry
        self._rng = Random(seed)
        #: site -> remaining hits before it fires (armed sites only).
        self._armed: Dict[str, int] = {}
        #: site -> times the site was reached while installed.
        self.hits: Dict[str, int] = {}
        #: Sites that actually fired, in order.
        self.crashes: List[str] = []

    # -- configuration -----------------------------------------------------

    def arm(self, site: str, hits: int = 1) -> "ChaosController":
        """Crash at the ``hits``-th future hit of ``site`` (default next)."""
        self._require_registered(site)
        if hits < 1:
            raise ValueError("hits must be >= 1")
        self._armed[site] = hits
        return self

    def disarm(self, site: str) -> None:
        """Cancel a pending armed crash at ``site`` (no-op if not armed)."""
        self._armed.pop(site, None)

    @property
    def armed_sites(self) -> List[str]:
        """Sites currently armed to crash, sorted."""
        return sorted(self._armed)

    # -- installation ------------------------------------------------------

    def install(self) -> "ChaosController":
        """Make this the active controller for every ``crashpoint()`` call."""
        global _ACTIVE
        if _ACTIVE is not None and _ACTIVE is not self:
            raise RuntimeError("another ChaosController is already installed")
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        """Deactivate (idempotent; only removes itself)."""
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "ChaosController":
        """Context-manager form of :meth:`install`."""
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Uninstall on scope exit; never suppresses the crash."""
        self.uninstall()
        return False

    # -- firing ------------------------------------------------------------

    def on_crashpoint(self, name: str) -> None:
        """Count a hit at ``name`` and crash if armed/scheduled to."""
        self._require_registered(name)
        self.hits[name] = self.hits.get(name, 0) + 1
        remaining = self._armed.get(name)
        if remaining is not None:
            if remaining <= 1:
                del self._armed[name]
                self._crash(name)
            else:
                self._armed[name] = remaining - 1
        if self.crash_rate > 0 and self._rng.random() < self.crash_rate:
            self._crash(name)

    def _crash(self, site: str) -> None:
        self.crashes.append(site)
        telemetry = self.telemetry
        if telemetry is not None:
            if telemetry.metering:
                telemetry.metrics.counter("chaos.crashes", site=site).inc()
            if telemetry.tracing:
                telemetry.add_event("chaos.crash", site=site)
        raise SimulatedCrash(site)

    @staticmethod
    def _require_registered(name: str) -> None:
        if name not in CRASHPOINTS:
            raise KeyError(
                f"unregistered crashpoint {name!r}; add it to "
                "repro.chaos.crashpoints.CRASHPOINTS"
            )
