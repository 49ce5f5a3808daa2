"""sql_point_lookup — reads used the opposite way to ``tpch_power``.

Tiny results through ``SqlSession.execute``: lex/parse/bind, the optimizer
rewrite with index and zone-map pruning, snapshot-cache hits and the
per-statement fixed costs dominate, and operator kernels barely matter.
TPC-H SF 2 is bulk-loaded in 16 source files for ``orders`` (in customer
order, so the point join's pushed-down customer key prunes by zone map)
and ``lineitem`` (in ship-date order, so date ranges prune by zone map
while order keys need the secondary index), every table is ANALYZEd and
four secondary indexes exist.  One round = 600 seeded statements cycling
four shapes; one client, closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import SqlSession, Warehouse
from repro.engine.batch import num_rows
from repro.workloads.tpch import TpchGenerator
from repro.workloads.tpch.schema import TPCH_DISTRIBUTION, TPCH_SCHEMAS

from benchmarks.e2e.workloads.base import (
    RoundResult,
    Workload,
    bench_config,
    counter_delta,
    engine_counters,
    resident_bytes,
    split_batch,
    user_bytes,
)

SOURCE_FILES = 16
ROW_GROUP_ROWS = 1_024

INDEXES = (
    ("customer", "idx_customer_custkey", "c_custkey"),
    ("orders", "idx_orders_orderkey", "o_orderkey"),
    ("orders", "idx_orders_custkey", "o_custkey"),
    ("lineitem", "idx_lineitem_orderkey", "l_orderkey"),
)

#: Days covered by the narrow ship-date range scan.
RANGE_DAYS = 2


def _count_between(sorted_values: np.ndarray, lo, hi) -> int:
    """Values v with lo <= v < hi, from a sorted array."""
    return int(
        np.searchsorted(sorted_values, hi, side="left")
        - np.searchsorted(sorted_values, lo, side="left")
    )


@dataclass
class LookupState:
    """The loaded warehouse plus the raw arrays the answers come from."""

    dw: Warehouse
    user_bytes: int
    customers: int
    order_keys: np.ndarray
    sorted_order_custkeys: np.ndarray
    sorted_line_orderkeys: np.ndarray
    sorted_shipdates: np.ndarray


class SqlPointLookup(Workload):
    """Seeded SQL-text point lookups, index probes and narrow ranges."""

    name = "sql_point_lookup"

    @property
    def scale_factor(self) -> float:
        return 0.1 if self.quick else 2.0

    @property
    def statements_per_round(self) -> int:
        return 16 if self.quick else 600

    def setup(self) -> LookupState:
        generator = TpchGenerator(scale_factor=self.scale_factor, seed=self.seed)
        tables = generator.all_tables()
        lineitem = tables["lineitem"]
        by_shipdate = np.argsort(lineitem["l_shipdate"], kind="stable")
        by_customer = np.argsort(tables["orders"]["o_custkey"], kind="stable")
        config = bench_config(self.seed)
        # Small row groups, so the zone maps inside a file prune too.
        config.row_group_size = ROW_GROUP_ROWS
        dw = Warehouse(config=config, auto_optimize=False)
        session = dw.session()
        ingested = 0
        for name, batch in tables.items():
            session.create_table(name, TPCH_SCHEMAS[name], TPCH_DISTRIBUTION[name])
            if name == "lineitem":
                ordered = {c: v[by_shipdate] for c, v in batch.items()}
                session.bulk_load(name, split_batch(ordered, SOURCE_FILES))
            elif name == "orders":
                ordered = {c: v[by_customer] for c, v in batch.items()}
                session.bulk_load(name, split_batch(ordered, SOURCE_FILES))
            else:
                session.insert(name, batch)
            ingested += user_bytes(batch)
        for name in tables:
            session.analyze_table(name)
        for table, index_name, column in INDEXES:
            session.create_index(table, index_name, column)
        return LookupState(
            dw=dw,
            user_bytes=ingested,
            customers=len(tables["customer"]["c_custkey"]),
            order_keys=tables["orders"]["o_orderkey"],
            sorted_order_custkeys=np.sort(tables["orders"]["o_custkey"]),
            sorted_line_orderkeys=np.sort(lineitem["l_orderkey"]),
            sorted_shipdates=lineitem["l_shipdate"][by_shipdate],
        )

    def statements(self, state: LookupState, k: int) -> List[Tuple[str, int]]:
        """Round ``k``'s ``(sql, expected row count)`` pairs."""
        rng = self.round_rng(k)
        first_day = int(state.sorted_shipdates[0])
        last_day = int(state.sorted_shipdates[-1])
        out = []
        for index in range(self.statements_per_round):
            shape = index % 4
            if shape == 0:
                key = int(rng.integers(1, state.customers + 1))
                out.append((
                    "SELECT c_custkey, c_name, c_acctbal FROM customer "
                    f"WHERE c_custkey = {key}",
                    1,
                ))
            elif shape == 1:
                key = int(state.order_keys[rng.integers(0, len(state.order_keys))])
                out.append((
                    "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem "
                    f"WHERE l_orderkey = {key}",
                    _count_between(state.sorted_line_orderkeys, key, key + 1),
                ))
            elif shape == 2:
                key = int(rng.integers(1, state.customers + 1))
                out.append((
                    "SELECT o_orderkey, o_totalprice FROM orders "
                    "JOIN customer ON o_custkey = c_custkey "
                    f"WHERE c_custkey = {key}",
                    _count_between(state.sorted_order_custkeys, key, key + 1),
                ))
            else:
                day = int(rng.integers(first_day, last_day))
                out.append((
                    "SELECT l_orderkey, l_shipdate FROM lineitem "
                    f"WHERE l_shipdate >= {day} AND l_shipdate < {day + RANGE_DAYS}",
                    _count_between(state.sorted_shipdates, day, day + RANGE_DAYS),
                ))
        return out

    def run_round(self, state: LookupState, k: int) -> RoundResult:
        dw = state.dw
        sql = SqlSession(dw.session())
        statements = self.statements(state, k)
        before = engine_counters(dw)
        timer = self.timer(dw)
        for text, expected in statements:
            rows = num_rows(timer.run(lambda: sql.execute(text)))
            if rows != expected:
                self.problems.append(f"round {k}: {rows} rows, expected {expected}: {text}")
        return timer.round_result(
            attempted=len(statements),
            failed=0,
            counters=counter_delta(engine_counters(dw), before),
            write_amp=dw.store.meter.bytes_written / state.user_bytes,
            space_amp=resident_bytes(dw) / state.user_bytes,
        )

    def probe(self, state: LookupState) -> bool:
        """A month of ship dates from the middle of the domain."""
        middle = int(state.sorted_shipdates[len(state.sorted_shipdates) // 2])
        result: Dict[str, np.ndarray] = SqlSession(state.dw.session()).execute(
            "SELECT COUNT(*) AS n FROM lineitem "
            f"WHERE l_shipdate >= {middle} AND l_shipdate < {middle + 30}"
        )
        return int(result["n"][0]) == _count_between(
            state.sorted_shipdates, middle, middle + 30
        )
