"""Command-line front end: ``python -m repro.service``.

``--saturation`` runs the graceful-degradation smoke CI gates on: the
same seeded traffic mix at a healthy 1× load and far past the knee,
asserting that under overload the gateway sheds with retry-after hints
while admitted-request p99 stays bounded — overload must degrade
goodput, not correctness.  Exit status is 0 when every check held, 1
otherwise.

Usage::

    python -m repro.service --saturation [--seed N]
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, List, Optional

from repro.common.config import PolarisConfig
from repro.service import admission
from repro.service.gateway import Gateway
from repro.warehouse import Warehouse
from repro.workloads.service_load import ServiceLoadGenerator


def percentile(sorted_values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an ascending-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


def run_load(
    seed: int,
    transactional_clients: int,
    analytical_clients: int,
    mean_think_s: float,
    requests_per_client: int = 5,
) -> Dict[str, object]:
    """One fresh warehouse + gateway driven by the seeded traffic mix."""
    config = PolarisConfig()
    config.seed = seed
    dw = Warehouse(config=config, auto_optimize=False)
    gateway = Gateway(dw.context, seed=seed)
    generator = ServiceLoadGenerator(
        gateway,
        seed=seed,
        transactional_clients=transactional_clients,
        analytical_clients=analytical_clients,
        requests_per_client=requests_per_client,
        mean_think_s=mean_think_s,
    )
    report = generator.run()
    latencies = generator.admitted_latencies()
    return {
        "report": report,
        "p99_s": percentile(latencies, 0.99),
        "gateway": gateway,
    }


def run_saturation(seed: int) -> int:
    """The 1× vs overload comparison; returns the exit status.

    The baseline (6 clients, 8 s mean think) sits just under the single
    dispatcher's ~0.35 req/s service rate; the overload run multiplies
    both the client population (2.5×) and the arrival rate per client
    (32×), pushing far past the knee.
    """
    base = run_load(
        seed, transactional_clients=4, analytical_clients=2, mean_think_s=8.0
    )
    over = run_load(
        seed, transactional_clients=10, analytical_clients=5, mean_think_s=0.25
    )
    base_report, over_report = base["report"], over["report"]
    print(f"1.0x load: {base_report.as_dict()}  p99={base['p99_s']:.3f}s")
    print(f"over load: {over_report.as_dict()}  p99={over['p99_s']:.3f}s")

    problems: List[str] = []
    if base_report.timed_out or base_report.shed:
        problems.append(
            "the baseline is not healthy: "
            f"{base_report.shed} shed, {base_report.timed_out} timed out"
        )
    if over_report.shed <= 0:
        problems.append("overload did not engage load shedding")
    shed_rows = over["gateway"].requests_with_status("shed")
    if any(request.retry_after_s <= 0 for request in shed_rows):
        problems.append("a shed request carried no retry-after hint")
    if over_report.completed < base_report.completed * 0.7:
        problems.append(
            f"goodput collapsed past the knee: {over_report.completed} "
            f"completed vs {base_report.completed} at 1x"
        )
    # An admitted-and-completed request waits at most the queue deadline
    # (the tail is shed, not served late), leaving only execution time.
    p99_bound = admission.QUEUE_DEADLINE_S + 2.0 * max(base["p99_s"], 1.0)
    if over["p99_s"] > p99_bound:
        problems.append(
            f"admitted-request p99 {over['p99_s']:.3f}s exceeds the "
            f"{p99_bound:.3f}s deadline-derived graceful-degradation bound"
        )
    for gateway_key in ("1.0x", "over"):
        gateway = (base if gateway_key == "1.0x" else over)["gateway"]
        stuck = gateway.requests_with_status("queued", "running")
        if stuck:
            problems.append(
                f"{gateway_key}: {len(stuck)} request(s) stuck in flight "
                "after the run drained"
            )

    if problems:
        print(f"\n{len(problems)} problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("\nsaturation smoke clean: shedding engaged, p99 bounded")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Deterministic multi-tenant gateway smoke checks.",
    )
    parser.add_argument(
        "--saturation",
        action="store_true",
        help="run the 1x vs overload graceful-degradation smoke",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="deterministic seed (default 0)"
    )
    args = parser.parse_args(argv)
    if args.saturation:
        return run_saturation(args.seed)
    parser.print_help(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
