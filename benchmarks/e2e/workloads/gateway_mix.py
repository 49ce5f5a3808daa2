"""gateway_mix — WP3-style writes beside reads, through the service gateway.

Four transactional clients trickle small ``lineitem`` inserts while two
analytical clients alternate TPC-H Q1/Q6 on the same table (SF 0.5), for
two tenants, through ``Gateway`` + ``ServiceLoadGenerator``.  The loop is
*open in simulated time*: each client draws seeded exponential think times
and submits regardless of how its previous request fared, so queueing and
simulated latency are exact for a seed.  Every commit invalidates the
snapshot the next scan needs, and admission, dispatch and scheduling
overhead is paid per request.  The think time is sized so nothing is shed
and nothing times out.

Every benchmark round builds a fresh warehouse and drives 120 requests
(operation = request), because each insert grows the table the scans
read: independent rounds keep the work per round the same.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro import SqlSession, Warehouse
from repro.service import Gateway
from repro.workloads.service_load import ServiceLoadGenerator
from repro.workloads.tpch import TpchGenerator
from repro.workloads.tpch.queries import q1, q6
from repro.workloads.tpch.schema import TPCH_DISTRIBUTION, TPCH_SCHEMAS

from benchmarks.e2e.workloads.base import (
    OpTimer,
    RoundResult,
    Workload,
    bench_config,
    counter_delta,
    engine_counters,
    resident_bytes,
    split_batch,
    user_bytes,
)

TRANSACTIONAL_CLIENTS = 4
ANALYTICAL_CLIENTS = 2
#: Mean think time per client, simulated seconds: six clients offer about
#: 0.2 requests per simulated second, well inside what one dispatcher
#: serves, so the queue deadline (30 s) is never reached.
MEAN_THINK_SIM_S = 30.0


class TimedLoadGenerator(ServiceLoadGenerator):
    """The stock load generator over a table the benchmark loaded itself,
    timing each request's work in wall, CPU and simulated time."""

    def __init__(self, gateway: Gateway, timer: OpTimer, trickle: List[Dict], **kwargs):
        super().__init__(gateway, **kwargs)
        self._timer = timer
        self._trickle = trickle

    def setup(self) -> None:
        """The table is already loaded; only hand over the insert batches."""
        self._trickle_batches = self._trickle

    def _submit_with_retries(self, tenant, workload_class, work, rng):
        def timed(session):
            return self._timer.run(lambda: work(session))

        yield from super()._submit_with_retries(tenant, workload_class, timed, rng)


@dataclass
class GatewayState:
    """One deployment with its gateway and the rows it must hold."""

    dw: Warehouse
    gateway: Gateway
    rows: int
    user_bytes: int


class GatewayMix(Workload):
    """Trickle inserts beside Q1/Q6 scans through the multi-tenant gateway."""

    name = "gateway_mix"
    loop = "open"
    fresh_per_round = True

    @property
    def scale_factor(self) -> float:
        return 0.05 if self.quick else 0.5

    @property
    def requests_per_client(self) -> int:
        return 1 if self.quick else 20

    def setup(self) -> GatewayState:
        lineitem = TpchGenerator(self.scale_factor, seed=self.seed).table("lineitem")
        dw = Warehouse(config=bench_config(self.seed), auto_optimize=True)
        session = dw.session()
        session.create_table(
            "lineitem", TPCH_SCHEMAS["lineitem"], TPCH_DISTRIBUTION["lineitem"]
        )
        session.bulk_load("lineitem", split_batch(lineitem, 2))
        for plan in (q1(), q6()):
            session.query(plan)
        return GatewayState(
            dw=dw,
            gateway=Gateway(dw.context, seed=self.seed),
            rows=len(lineitem["l_orderkey"]),
            user_bytes=user_bytes(lineitem),
        )

    def run_round(self, state: GatewayState, k: int) -> RoundResult:
        dw, gateway = state.dw, state.gateway
        inserts = TRANSACTIONAL_CLIENTS * self.requests_per_client
        trickle = split_batch(
            TpchGenerator(
                self.scale_factor / 4, seed=self.seed * 1_000_003 + k + 1
            ).table("lineitem"),
            inserts,
        )[:inserts]
        before = engine_counters(dw)
        timer = self.timer(dw)
        generator = TimedLoadGenerator(
            gateway,
            timer,
            trickle,
            seed=self.seed * 1_000_003 + k + 1,
            transactional_clients=TRANSACTIONAL_CLIENTS,
            analytical_clients=ANALYTICAL_CLIENTS,
            requests_per_client=self.requests_per_client,
            mean_think_s=MEAN_THINK_SIM_S,
        )
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        report = generator.run()
        cpu_s = time.process_time() - cpu0 - timer.kernel_cpu_s
        wall_s = time.perf_counter() - wall0 - timer.kernel_wall_s

        completed = gateway.requests_with_status("completed")
        state.rows += sum(len(batch["l_orderkey"]) for batch in trickle)
        state.user_bytes += sum(user_bytes(batch) for batch in trickle)
        if report.completed != report.admitted:
            self.problems.append(
                f"round {k}: completed {report.completed} != admitted {report.admitted}"
            )
        stuck = gateway.requests_with_status("queued", "running")
        if stuck:
            self.problems.append(f"round {k}: {len(stuck)} request(s) left queued/running")
        live = dw.session().table_snapshot("lineitem").live_rows
        if live != state.rows:
            self.problems.append(
                f"round {k}: lineitem holds {live} rows, base + completed "
                f"inserts is {state.rows}"
            )
        counters = counter_delta(engine_counters(dw), before)
        counters.update({
            "service.queue_wait_sim_s": sum(r.queue_wait_s for r in completed),
            "service.shed": report.shed,
            "service.timed_out": report.timed_out,
        })
        return timer.round_result(
            op_sim_latency_s=[r.finished_at - r.submitted_at for r in completed],
            wall_s=wall_s,
            cpu_s=cpu_s,
            attempted=report.admitted + report.abandoned,
            failed=report.failed + report.timed_out + report.abandoned,
            counters=counters,
            write_amp=dw.store.meter.bytes_written / state.user_bytes,
            space_amp=resident_bytes(dw) / state.user_bytes,
        )

    def probe(self, state: GatewayState) -> bool:
        result: Dict[str, np.ndarray] = SqlSession(state.dw.session()).execute(
            "SELECT COUNT(*) AS n FROM lineitem"
        )
        return int(result["n"][0]) == state.rows
