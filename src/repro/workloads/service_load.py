"""Open-loop mixed-workload traffic for the service gateway.

Replays the paper's two request classes through :class:`repro.service.Gateway`
as cooperative tasklets: *transactional* clients trickle small lineitem
batches into the fact table (the steady ingestion of Fig. 12's Data
Maintenance phase), while *analytical* clients run TPC-H Q1/Q6 scans.
Arrivals are open-loop — each client draws think times from a seeded
exponential distribution and submits regardless of how the previous
request fared — so overload actually builds queues instead of
self-throttling.  Clients honor load shedding: a shed request sleeps the
server-provided retry-after hint and resubmits, up to a retry cap.

Everything is seeded (client think times, gateway tie-breaks, TPC-H
data), so one seed + config reproduces the exact same admission
decisions, queue orders, and metric values run after run.
"""

from __future__ import annotations

from random import Random
from typing import Any, Dict, List, Optional

from repro.common.errors import RequestSheddedError
from repro.service.gateway import Gateway
from repro.workloads.tpch import TpchGenerator
from repro.workloads.tpch.queries import q1, q6
from repro.workloads.tpch.schema import TPCH_DISTRIBUTION, TPCH_SCHEMAS


class LoadReport:
    """Outcome totals of one load-generator run."""

    def __init__(self) -> None:
        #: ``submit`` calls issued (including retries of shed requests).
        self.submitted = 0
        #: Requests accepted into a queue.
        self.admitted = 0
        #: Requests refused with a retry-after hint.
        self.shed = 0
        #: Shed requests resubmitted after honoring their hint.
        self.retries = 0
        #: Requests abandoned after exhausting the retry cap.
        self.abandoned = 0
        #: Terminal totals from the gateway's monotonic counters
        #: (:meth:`~repro.service.gateway.Gateway.finished_count`), so they
        #: stay exact past ``gateway.FINISHED_HISTORY_CAP`` ledger eviction.
        self.completed = 0
        self.failed = 0
        self.timed_out = 0
        #: Simulated seconds the whole run took.
        self.elapsed_s = 0.0
        #: Completed requests per simulated second.
        self.goodput = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """The report as a plain dict (benchmark ``extra_info``)."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed": self.shed,
            "retries": self.retries,
            "abandoned": self.abandoned,
            "completed": self.completed,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "elapsed_s": round(self.elapsed_s, 6),
            "goodput": round(self.goodput, 6),
        }


class ServiceLoadGenerator:
    """Drives mixed TPC-H + trickle-ingestion traffic through a gateway."""

    def __init__(
        self,
        gateway: Gateway,
        seed: int = 0,
        transactional_clients: int = 4,
        analytical_clients: int = 2,
        requests_per_client: int = 5,
        mean_think_s: float = 1.0,
        max_retries: int = 3,
        scale_factor: float = 0.05,
        tenants: Optional[List[str]] = None,
    ) -> None:
        self.gateway = gateway
        self.seed = seed
        self.transactional_clients = transactional_clients
        self.analytical_clients = analytical_clients
        self.requests_per_client = requests_per_client
        self.mean_think_s = mean_think_s
        self.max_retries = max_retries
        self.scale_factor = scale_factor
        self.tenants = tenants or ["tenant_a", "tenant_b"]
        self.report = LoadReport()
        self._trickle_batches: List[Any] = []
        self._setup_done = False

    # -- data --------------------------------------------------------------

    def setup(self) -> None:
        """Create and load ``lineitem``, and pre-cut the trickle batches.

        Setup bypasses the gateway (a DBA bootstrap, not tenant traffic):
        it runs on a direct FE session so the load run starts from a warm
        table without consuming admission tokens.
        """
        if self._setup_done:
            return
        from repro.fe.session import Session

        session = Session(self.gateway.context)
        base = TpchGenerator(scale_factor=self.scale_factor, seed=42)
        session.create_table(
            "lineitem", TPCH_SCHEMAS["lineitem"], TPCH_DISTRIBUTION["lineitem"]
        )
        session.bulk_load(
            "lineitem", base.split_into_source_files("lineitem", 2)
        )
        trickle = TpchGenerator(
            scale_factor=self.scale_factor / 4, seed=self.seed + 1
        )
        total = max(
            1, self.transactional_clients * self.requests_per_client
        )
        self._trickle_batches = trickle.split_into_source_files(
            "lineitem", total
        )
        self._setup_done = True

    # -- clients -----------------------------------------------------------

    def _submit_with_retries(self, tenant, workload_class, work, rng):
        """Tasklet sub-generator: submit, honoring retry-after on shed."""
        attempts = 0
        while True:
            self.report.submitted += 1
            try:
                self.gateway.submit(tenant, workload_class, work)
            except RequestSheddedError as shed:
                self.report.shed += 1
                if attempts >= self.max_retries:
                    self.report.abandoned += 1
                    return
                attempts += 1
                self.report.retries += 1
                yield shed.retry_after_s
            else:
                self.report.admitted += 1
                return

    def _transactional_client(self, index: int):
        """One trickle-ingestion client: insert small lineitem batches."""
        rng = Random(f"service-load:{self.seed}:txn:{index}")
        tenant = self.tenants[index % len(self.tenants)]
        for turn in range(self.requests_per_client):
            yield rng.expovariate(1.0 / self.mean_think_s)
            batch_index = index * self.requests_per_client + turn
            batch = self._trickle_batches[
                batch_index % len(self._trickle_batches)
            ]
            work = (
                lambda session, payload=batch: session.insert(
                    "lineitem", payload
                )
            )
            for sleep_s in self._submit_with_retries(
                tenant, "transactional", work, rng
            ):
                yield sleep_s

    def _analytical_client(self, index: int):
        """One scan client: alternate TPC-H Q1 and Q6."""
        rng = Random(f"service-load:{self.seed}:olap:{index}")
        tenant = self.tenants[index % len(self.tenants)]
        for turn in range(self.requests_per_client):
            yield rng.expovariate(1.0 / self.mean_think_s)
            plan = q1() if (index + turn) % 2 == 0 else q6()
            work = lambda session, p=plan: session.query(p)
            for sleep_s in self._submit_with_retries(
                tenant, "analytical", work, rng
            ):
                yield sleep_s

    def spawn_clients(self) -> int:
        """Register every client tasklet; returns how many were spawned."""
        scheduler = self.gateway.scheduler
        for index in range(self.transactional_clients):
            scheduler.spawn(
                self._transactional_client(index), name=f"txn-client-{index}"
            )
        for index in range(self.analytical_clients):
            scheduler.spawn(
                self._analytical_client(index), name=f"olap-client-{index}"
            )
        return self.transactional_clients + self.analytical_clients

    # -- run ---------------------------------------------------------------

    def run(self) -> LoadReport:
        """Setup, spawn all clients, drive the gateway to quiescence."""
        self.setup()
        started = self.gateway.context.clock.now
        # Snapshot the gateway's monotonic totals so the report covers
        # exactly this run, even on a gateway that served earlier traffic.
        terminal = ("completed", "failed", "timed_out")
        before = {
            status: self.gateway.finished_count(status) for status in terminal
        }
        self.spawn_clients()
        self.gateway.run()
        report = self.report
        report.elapsed_s = self.gateway.context.clock.now - started
        report.completed = (
            self.gateway.finished_count("completed") - before["completed"]
        )
        report.failed = self.gateway.finished_count("failed") - before["failed"]
        report.timed_out = (
            self.gateway.finished_count("timed_out") - before["timed_out"]
        )
        if report.elapsed_s > 0:
            report.goodput = report.completed / report.elapsed_s
        return report

    def admitted_latencies(self) -> List[float]:
        """End-to-end latencies of completed requests, sorted ascending.

        Sampled from the gateway ledger, so at most the newest
        ``gateway.FINISHED_HISTORY_CAP`` completions contribute — a
        bounded-memory tail sample, unlike the exact totals in
        :class:`LoadReport`.
        """
        latencies = [
            request.finished_at - request.submitted_at
            for request in self.gateway.requests_with_status("completed")
        ]
        return sorted(latencies)
