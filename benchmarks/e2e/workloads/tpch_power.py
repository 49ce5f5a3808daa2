"""tpch_power — the analyst workload of Fig 9: warm TPC-H power runs.

One client, closed loop, the 22 plan-API queries through ``Session.query``
over tables loaded once, with no statistics and ``auto_optimize=False``:
operator kernels and page-file decode dominate, while the SQL front end,
the optimizer (identity without statistics), the commit path and the STO
do almost nothing.  One round = one power run = 22 operations.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Tuple

from repro import Warehouse
from repro.workloads.tpch import TPCH_QUERIES, TpchGenerator
from repro.workloads.tpch.schema import TPCH_DISTRIBUTION, TPCH_SCHEMAS

from benchmarks.e2e.checks import batch_checksum
from benchmarks.e2e.workloads.base import (
    RoundResult,
    Workload,
    bench_config,
    counter_delta,
    engine_counters,
    resident_bytes,
    user_bytes,
)

EXPECTED_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "expected",
    "tpch_sf1_seed0.json",
)

#: The probe a restart must answer: Q6, a single-table scan + aggregate.
PROBE_QUERY = 6


@dataclass
class TpchState:
    """A loaded TPC-H warehouse."""

    dw: Warehouse
    user_bytes: int


class TpchPower(Workload):
    """22 TPC-H plan-API queries per round against a static SF-1 load."""

    name = "tpch_power"

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        #: query number -> (rows, checksum): fixed by the first execution
        #: and the same for every state set up from this seed.
        self.answers: Dict[int, Tuple[int, int]] = {}

    @property
    def scale_factor(self) -> float:
        """SF 1.0 is about 60k lineitem rows; ``--quick`` runs SF 0.05."""
        return 0.05 if self.quick else 1.0

    def setup(self) -> TpchState:
        generator = TpchGenerator(scale_factor=self.scale_factor, seed=self.seed)
        dw = Warehouse(config=bench_config(self.seed), auto_optimize=False)
        session = dw.session()
        ingested = 0
        for name, batch in generator.all_tables().items():
            session.create_table(name, TPCH_SCHEMAS[name], TPCH_DISTRIBUTION[name])
            session.insert(name, batch)
            ingested += user_bytes(batch)
        return TpchState(dw=dw, user_bytes=ingested)

    def run_round(self, state: TpchState, k: int) -> RoundResult:
        dw = state.dw
        session = dw.session()
        before = engine_counters(dw)
        timer = self.timer(dw)
        for number, builder in sorted(TPCH_QUERIES.items()):
            plan = builder()
            answer = batch_checksum(timer.run(lambda: session.query(plan)))
            expected = self.answers.setdefault(number, answer)
            if answer != expected:
                self.problems.append(
                    f"Q{number:02d} round {k}: (rows, checksum) {answer} != {expected}"
                )
        return timer.round_result(
            attempted=len(timer.wall_s),
            failed=0,
            counters=counter_delta(engine_counters(dw), before),
            write_amp=dw.store.meter.bytes_written / state.user_bytes,
            space_amp=resident_bytes(dw) / state.user_bytes,
        )

    def probe(self, state: TpchState) -> bool:
        answer = batch_checksum(state.dw.session().query(TPCH_QUERIES[PROBE_QUERY]()))
        return answer == self.answers[PROBE_QUERY]

    def final_check(self) -> None:
        """Seed 0 at SF 1 must also match the committed expected answers."""
        if self.seed != 0 or self.quick:
            return
        with open(EXPECTED_FILE, encoding="utf-8") as handle:
            expected = json.load(handle)
        for number, answer in sorted(self.answers.items()):
            want = expected.get(str(number))
            if want is None or tuple(want) != answer:
                self.problems.append(
                    f"Q{number:02d}: (rows, checksum) {answer} != expected {want}"
                )
