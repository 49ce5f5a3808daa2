"""Compare two sets of ``run`` results against the bounds of BENCHMARK.json.

A set is a JSON-lines file written by ``run --append FILE``: one result per
(workload, seed).  For every (workload, end-to-end metric) the two medians
over seeds are compared; the spread of a set is the distance between its
first and third quartile as a share of its median.

verdicts: ``ok``; ``regressed`` — B's median is worse than A's by more
than the bound; ``unresolved`` — a spread is wider than the bound, so the
runs cannot tell.  With ``--agree`` (A and B are the same commit) a median
that moved by more than the bound in *either* direction is ``regressed``,
and the exactly-repeating metrics must be identical seed by seed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from benchmarks.e2e.harness import load_spec

#: End-to-end metrics that depend only on the seed, never on the machine.
EXACT_METRICS = ("sim_s_per_op", "sim_p95_s", "write_amp", "space_amp")

Values = Dict[Tuple[str, str], Dict[int, float]]


def load_set(path: str) -> Values:
    """``(workload, metric) -> {seed: value}`` of the untraced results."""
    values: Values = defaultdict(dict)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            result = json.loads(line)
            if result["trace"]:
                continue
            for metric, entry in result["metrics"].items():
                values[(result["workload"], metric)][result["seed"]] = entry["value"]
    return values


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def main(path_a: str, path_b: str, agree: bool) -> int:
    spec = load_spec()
    set_a, set_b = load_set(path_a), load_set(path_b)
    print(
        f"{'workload':<18}{'metric':<16}{'median A':>14}{'median B':>14}"
        f"{'delta':>9}{'spread A':>10}{'spread B':>10}{'bound':>8}  verdict"
    )
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for entry in spec["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            a, b = set_a.get((workload, metric)), set_b.get((workload, metric))
            if not a or not b:
                print(f"{workload:<18}{metric:<16}  missing from a set")
                bad += 1
                continue
            median_a = statistics.median(a.values())
            median_b = statistics.median(b.values())
            delta = (median_b - median_a) / abs(median_a)
            worse = delta if entry["better"] == "lower" else -delta
            spread_a, spread_b = spread(list(a.values())), spread(list(b.values()))
            verdict = "ok"
            # setup_s is exempt from the spread rule, as in the contract.
            if metric != "setup_s" and max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif (abs(delta) if agree else worse) > bound:
                verdict = "regressed"
            if agree and metric in EXACT_METRICS:
                differing = [s for s in a if s in b and a[s] != b[s]]
                if differing:
                    verdict = f"regressed (not identical for seeds {differing})"
            if verdict != "ok":
                bad += 1
            print(
                f"{workload:<18}{metric:<16}{median_a:>14.5g}{median_b:>14.5g}"
                f"{delta:>+9.2%}{spread_a:>10.2%}{spread_b:>10.2%}{bound:>8.0%}"
                f"  {verdict}"
            )
    print(f"# {bad} pair(s) not ok")
    return 1 if bad else 0
