"""Unit-cost micro pass: one public function per row, seeded synthetic input.

Each ``*.unit_*`` metric is a direct call into one function of one layer,
timed with ``perf_counter`` as the minimum of N repeats, so a regression
is attributable to that function without a trace.  The spread printed
beside each value is ``(median - min) / min`` over the repeats.
``python -m benchmarks.e2e layers`` runs it with N = 7; a traced benchmark
run includes it with N = 3.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro import Col, Lit, BinOp, Schema
from repro.engine import operators
from repro.lst.actions import AddDataFile, DataFileInfo
from repro.lst.snapshot import replay
from repro.pagefile.deletion_vector import DeletionVector
from repro.pagefile.file_format import write_page_file
from repro.pagefile.reader import PageFileReader
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.sqldb.engine import SqlDbEngine
from repro.workloads.tpch.queries_sql import Q3_SQL
from repro.workloads.tpch.schema import TPCH_SCHEMAS

SEED = 20240611
MIB = float(1 << 20)


def _best(fn: Callable[[], object], repeats: int, inner: int = 1) -> Tuple[float, float]:
    """(min seconds per call, spread) over ``repeats`` timings of ``inner`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    best = min(samples)
    return best, (statistics.median(samples) - best) / best


def unit_costs(repeats: int = 7, quick: bool = False) -> Dict[str, Tuple[float, float]]:
    """``metric -> (value, spread)`` for every ``*.unit_*`` row."""
    rng = np.random.default_rng(SEED)
    rows = 5_000 if quick else 100_000
    out: Dict[str, Tuple[float, float]] = {}

    # pagefile: a 1 MiB file (16 384 rows x 8 eight-byte columns).
    file_rows = 1_024 if quick else 16_384
    schema = Schema.of(
        *[(f"i{n}", "int64") for n in range(4)],
        *[(f"f{n}", "float64") for n in range(4)],
    )
    columns = {f"i{n}": rng.integers(0, 1 << 40, file_rows) for n in range(4)}
    columns.update({f"f{n}": rng.random(file_rows) for n in range(4)})
    mib = sum(v.nbytes for v in columns.values()) / MIB
    data = write_page_file(schema, columns)
    best, spread = _best(lambda: write_page_file(schema, columns), repeats)
    out["pagefile.unit_write_ms_per_mib"] = (best * 1e3 / mib, spread)
    best, spread = _best(lambda: PageFileReader(data).read(), repeats)
    out["pagefile.unit_read_ms_per_mib"] = (best * 1e3 / mib, spread)
    first = DeletionVector(rng.choice(1 << 20, 10_000, replace=False))
    second = DeletionVector(rng.choice(1 << 20, 10_000, replace=False))
    best, spread = _best(lambda: first.union(second), repeats, inner=20)
    out["pagefile.unit_dv_union_us"] = (best * 1e6, spread)

    # lst: replay 100 manifests of 10 add-file actions each.
    manifests = [
        (
            seq,
            float(seq),
            [
                AddDataFile(DataFileInfo(
                    name=f"{seq:04d}-{n}.rpf",
                    path=f"dw/t/{seq:04d}-{n}.rpf",
                    num_rows=1_000,
                    size_bytes=10_000,
                    distribution=n % 8,
                ))
                for n in range(10)
            ],
        )
        for seq in range(1, 101)
    ]
    best, spread = _best(lambda: replay(manifests), repeats)
    out["lst.unit_replay_ms_per_1k_actions"] = (best * 1e3, spread)

    # sqldb: begin -> one put -> commit on a growing catalog.
    engine = SqlDbEngine()
    keys = iter(range(1 << 30))

    def begin_commit() -> None:
        txn = engine.begin()
        txn.put("Bench", (next(keys),), {"v": 1})
        txn.commit()

    best, spread = _best(begin_commit, repeats, inner=200)
    out["sqldb.unit_begin_commit_us"] = (best * 1e6, spread)

    # engine: each operator over ``rows`` fact rows (joined to rows/10 keys).
    fact = {
        "k": rng.integers(0, rows // 10, rows),
        "g": rng.integers(0, 100, rows),
        "v": rng.random(rows),
    }
    dim = {"dk": np.arange(rows // 10, dtype=np.int64), "dv": rng.random(rows // 10)}
    aggs = {"total": ("sum", Col("v")), "n": ("count", None)}
    predicate = BinOp(">", Col("v"), Lit(0.5))
    for metric, fn in (
        ("engine.unit_hash_join_ms_100k",
         lambda: operators.hash_join(fact, dim, ["k"], ["dk"])),
        ("engine.unit_sort_merge_join_ms_100k",
         lambda: operators.sort_merge_join(fact, dim, ["k"], ["dk"])),
        ("engine.unit_aggregate_ms_100k", lambda: operators.aggregate(fact, ["g"], aggs)),
        ("engine.unit_sort_ms_100k", lambda: operators.sort(fact, [("v", True)])),
        ("engine.unit_filter_ms_100k", lambda: operators.filter_batch(fact, predicate)),
    ):
        best, spread = _best(fn, repeats)
        out[metric] = (best * 1e3, spread)

    # sql: lex -> parse, then bind, of TPC-H Q3.
    best, spread = _best(lambda: parse(Q3_SQL), repeats, inner=20)
    out["sql.unit_parse_us_q3"] = (best * 1e6, spread)
    statement = parse(Q3_SQL)
    best, spread = _best(
        lambda: Binder(TPCH_SCHEMAS).bind_select(statement), repeats, inner=20
    )
    out["sql.unit_bind_us_q3"] = (best * 1e6, spread)
    return out


def print_unit_costs(repeats: int = 7) -> None:
    """The BENCH_layers rows: name, value, unit suffix in the name, spread."""
    started = time.perf_counter()
    for metric, (value, spread) in unit_costs(repeats).items():
        print(f"{metric:<40} {value:>14.3f}   spread {spread:6.1%}  (min of {repeats})")
    print(f"# micro pass took {time.perf_counter() - started:.1f} s")
