"""The service context: every component a session or system task needs.

One :class:`ServiceContext` is assembled per warehouse by
:class:`repro.warehouse.Warehouse` and threaded through the FE, the STO
and the benchmarks.  Keeping it a plain bundle (rather than globals) makes
every test hermetic — two warehouses never share state.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Protocol, Tuple

from repro.common.clock import SimulatedClock
from repro.common.config import PolarisConfig
from repro.common.events import EventBus
from repro.common.ids import GuidGenerator, MonotonicSequence
from repro.dcp.autoscaler import Autoscaler
from repro.dcp.costmodel import CostModel
from repro.dcp.scheduler import Scheduler
from repro.dcp.wlm import WorkloadManager
from repro.lst.cache import SnapshotCache
from repro.pagefile.cache import ChunkCache
from repro.sqldb.engine import SqlDbEngine
from repro.storage.object_store import ObjectStore
from repro.telemetry.facade import Telemetry

if TYPE_CHECKING:
    from repro.optimizer.manager import QueryOptimizer
    from repro.service.gateway import Gateway
    from repro.sql.plan_cache import PlanCache
    from repro.telemetry.introspection import Introspector

#: Every open :func:`recording` scope, outermost first: its list, and
#: whether that list holds weak references.
_RECORDINGS: "List[Tuple[list, bool]]" = []


@contextmanager
def recording(weak: bool = False) -> "Iterator[list]":
    """Collect every :class:`ServiceContext` created in the ``with`` body.

    Yields a list that :meth:`ServiceContext.create` appends each new
    context to, in creation order, while the scope is open (nested scopes
    each collect).  The list holds the contexts strongly, so a deployment
    its creator dropped is still there for a post-run trace or report.
    With ``weak`` it holds a ``weakref.ref`` to each instead, and the
    scope keeps no deployment alive.
    """
    recorded: list = []
    _RECORDINGS.append((recorded, weak))
    try:
        yield recorded
    finally:
        _RECORDINGS.pop()


class Participant(Protocol):
    """A holder of crash-volatile process state (``participants``)."""

    def scavenge(self) -> int:
        """Discard every in-flight record; returns how many there were."""

    @property
    def inflight_count(self) -> int:
        """How many records are in flight right now."""


@dataclass
class ServiceContext:
    """Shared infrastructure of one Polaris deployment."""

    database: str
    config: PolarisConfig
    clock: SimulatedClock
    store: ObjectStore
    sqldb: SqlDbEngine
    wlm: WorkloadManager
    scheduler: Scheduler
    autoscaler: Autoscaler
    cost_model: CostModel
    cache: SnapshotCache
    guids: GuidGenerator
    bus: EventBus
    #: Span tracing + metrics for the whole deployment.
    telemetry: Telemetry
    #: Decompressed column chunks of the immutable data files this
    #: deployment has scanned (process memory, like ``cache``; per
    #: context because etags and GUID paths repeat across stores).
    chunk_cache: ChunkCache
    #: Resolves ``sys.dm_*`` system-view names (attached after
    #: construction, like the cache — it subscribes to the bus).
    introspection: "Optional[Introspector]" = None
    #: Cost-based query optimizer: ANALYZE statistics, secondary indexes
    #: and plan rewriting (attached after construction; it reads the
    #: catalog through each statement's transaction).
    optimizer: "Optional[QueryOptimizer]" = None
    #: The multi-tenant gateway fronting this deployment, if one was
    #: constructed (it attaches itself; ``sys.dm_sessions`` /
    #: ``sys.dm_requests`` read it).
    gateway: "Optional[Gateway]" = None
    #: Crash-volatile process state, name -> :class:`Participant`.
    #: Whoever holds state a dead front end cannot finish — the gateway,
    #: each telemetry collector, the tracer while tracing — joins under
    #: its name (re-joining replaces); recovery scavenges every entry
    #: without knowing any of them, and a live deployment can be asked
    #: what each one holds in flight.
    participants: Dict[str, Participant] = field(default_factory=dict)
    #: Bound plans of the SELECT shapes this deployment has compiled
    #: (process memory, like ``cache``; attached after construction).
    plan_cache: "Optional[PlanCache]" = None
    #: Whether the deployment sizes pools per statement (serverless Fabric
    #: model) or keeps the fixed provisioned size (Synapse SQL DW model) —
    #: the contrast of Figure 8.
    elastic: bool = True
    #: Allocates logical table ids.
    table_ids: MonotonicSequence = field(
        default_factory=lambda: MonotonicSequence(start=1001)
    )

    @classmethod
    def create(
        cls,
        database: str = "dw",
        config: Optional[PolarisConfig] = None,
        elastic: bool = True,
        separate_pools: bool = True,
    ) -> "ServiceContext":
        """Wire a fresh deployment with a shared clock across components."""
        # Checked, not assumed: ``Warehouse(PolarisConfig())`` binds the
        # config to ``database`` and would otherwise run on defaults.
        if not isinstance(database, str) or not database:
            raise TypeError(
                f"database must be a non-empty str, got {database!r:.40}"
            )
        if config is not None and not isinstance(config, PolarisConfig):
            raise TypeError(
                "config must be a PolarisConfig or None, got "
                f"{type(config).__name__}"
            )
        config = config or PolarisConfig()
        config.validate()
        clock = SimulatedClock()
        bus = EventBus()
        participants: Dict[str, Participant] = {}
        telemetry = Telemetry(
            clock, config.telemetry, config.seed, bus, participants
        )
        store = ObjectStore(
            clock=clock, config=config.storage, telemetry=telemetry
        )
        sqldb = SqlDbEngine(clock=clock)
        # The engine builds its own commit lock; the contention model and
        # the lock's telemetry sinks are bound onto it here.
        sqldb.commit_lock.configure(telemetry)
        cost_model = CostModel(config.dcp)
        scheduler = Scheduler(clock, store, cost_model, telemetry=telemetry)
        wlm = WorkloadManager(config.dcp, separate_pools=separate_pools)
        context = cls(
            database=database,
            config=config,
            clock=clock,
            store=store,
            sqldb=sqldb,
            wlm=wlm,
            scheduler=scheduler,
            autoscaler=Autoscaler(config.dcp),
            cost_model=cost_model,
            cache=None,  # type: ignore[arg-type]  -- set just below
            guids=GuidGenerator(seed=config.seed),
            bus=bus,
            telemetry=telemetry,
            participants=participants,
            chunk_cache=ChunkCache(telemetry.metrics),
            elastic=elastic,
        )
        # The cache's loaders need the context (store + sqldb), so it is
        # attached after construction.
        from repro.fe.manifest_io import make_snapshot_cache

        context.cache = make_snapshot_cache(context)
        # The introspector needs the assembled context (bus, cache, sqldb)
        # to subscribe its transaction ledger and resolve sys.dm_* views.
        from repro.telemetry.introspection import Introspector

        context.introspection = Introspector(context)
        # The optimizer needs the assembled context (store, clock, cost
        # model, telemetry) to scan snapshots and charge IO.
        from repro.optimizer.manager import QueryOptimizer

        context.optimizer = QueryOptimizer(context)
        from repro.sql.plan_cache import PlanCache

        context.plan_cache = PlanCache(telemetry.metrics)
        for recorded, weak in _RECORDINGS:
            recorded.append(weakref.ref(context) if weak else context)
        return context

    def drop_process_memory(self) -> None:
        """Forget everything this process cached from the store and the
        catalog: snapshots, chunks and footers, bound plans, index blobs
        and statistics.  Recovery calls it (a restarted process starts
        cold), and so does a restore (the catalog they came from is
        gone)."""
        self.cache.invalidate()
        self.chunk_cache.clear()
        self.plan_cache.clear()
        self.optimizer.index_cache.clear()
        self.optimizer.stats_cache.clear()
