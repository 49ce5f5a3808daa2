"""Figure 12 — LST-Bench WP3: read/write concurrency phases.

Paper setup: WP3 runs a Single User power run concurrently with Data
Maintenance, then SU alone, then SU concurrent with an Optimize phase
(Polaris's autonomous optimization makes a dedicated optimize unnecessary,
so the paper runs SU alone between the concurrent phases).  Expected
shape: SU concurrent with DM takes significantly longer than SU alone —
each query gets a fresh snapshot of freshly committed data (statistics
updates, cache misses, newly compacted files to re-read) — and SU
recovers between the concurrent phases.

Reproduction: the same phase sequence over the TPC-DS subset.
"""

# Script mode (``python benchmarks/bench_*.py``): make repo-root imports
# resolvable before the ``benchmarks``/``repro`` imports below.
if __package__ in (None, ""):
    import os
    import sys

    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for _path in (os.path.join(_ROOT, "src"), _ROOT):
        if _path not in sys.path:
            sys.path.insert(0, _path)

from repro.service import Gateway, admission
from repro.service.__main__ import percentile
from repro.workloads.lst_bench import LstBenchRunner
from repro.workloads.service_load import ServiceLoadGenerator

from benchmarks.support import fresh_warehouse, print_series, run_once


def test_fig12_wp3_concurrency(benchmark):
    state = {}

    def workload():
        dw = fresh_warehouse(
            auto_optimize=True,
            sto__min_healthy_rows_per_file=100,
        )
        runner = LstBenchRunner(dw, scale_factor=0.25, source_files_per_table=2)
        runner.setup()
        phases = runner.run_wp3()
        state["dw"] = dw
        state["phases"] = phases
        return phases

    run_once(benchmark, workload)

    phases = state["phases"]
    rows = [
        (p.name, f"{p.elapsed:.1f}", p.statements)
        for p in phases
    ]
    print_series(
        "Figure 12: LST-Bench WP3 phase durations",
        ["phase", "elapsed_s", "statements"],
        rows,
    )
    cache_stats = state["dw"].context.cache.stats.as_dict()
    print(f"snapshot cache: {cache_stats}")

    by_name = {p.name: p for p in phases}
    su_alone = by_name["SU-alone"].elapsed
    su_dm = by_name["SU+DM"].elapsed
    su_between = by_name["SU-between"].elapsed
    su_opt = by_name["SU+Optimize"].elapsed

    # Shape: concurrency with DM slows SU down significantly; SU recovers
    # between concurrent phases; SU with Optimize costs less than with DM.
    assert su_dm > su_alone * 1.5, (
        f"SU+DM ({su_dm:.1f}s) should be significantly slower than "
        f"SU alone ({su_alone:.1f}s)"
    )
    assert su_between < su_dm
    assert su_opt < su_dm

    benchmark.extra_info["phases"] = {p.name: p.elapsed for p in phases}


def _gateway_load(seed, transactional_clients, analytical_clients, mean_think_s):
    """One fresh warehouse + gateway driven by the seeded traffic mix."""
    dw = fresh_warehouse(auto_optimize=False, seed=seed)
    gateway = Gateway(dw.context, seed=seed)
    generator = ServiceLoadGenerator(
        gateway,
        seed=seed,
        transactional_clients=transactional_clients,
        analytical_clients=analytical_clients,
        mean_think_s=mean_think_s,
    )
    report = generator.run()
    return {
        "dw": dw,
        "gateway": gateway,
        "report": report,
        "p99_s": percentile(generator.admitted_latencies(), 0.99),
    }


def test_service_gateway_throughput(benchmark):
    """WP3 traffic through the gateway at a healthy 1x load."""
    state = {}

    def workload():
        state.update(_gateway_load(
            seed=0, transactional_clients=4, analytical_clients=2,
            mean_think_s=8.0,
        ))
        return state["report"]

    run_once(benchmark, workload)

    report = state["report"]
    print_series(
        "Service gateway: healthy 1x mixed load",
        ["measure", "value"],
        sorted(report.as_dict().items()) + [("p99_s", f"{state['p99_s']:.3f}")],
    )
    assert report.shed == 0, "the 1x baseline must not shed"
    assert report.timed_out == 0, "the 1x baseline must not time out"
    assert report.completed == report.admitted, (
        f"only {report.completed} of {report.admitted} admitted requests "
        "completed at 1x load"
    )
    stuck = state["gateway"].requests_with_status("queued", "running")
    assert not stuck, f"{len(stuck)} request(s) stuck in flight after drain"

    for key, value in report.as_dict().items():
        benchmark.extra_info[key] = value
    benchmark.extra_info["p99_s"] = round(state["p99_s"], 6)


def test_service_saturation(benchmark):
    """Graceful degradation: overload sheds, goodput plateaus, p99 bounded."""
    state = {}

    def workload():
        state["base"] = _gateway_load(
            seed=0, transactional_clients=4, analytical_clients=2,
            mean_think_s=8.0,
        )
        state["over"] = _gateway_load(
            seed=0, transactional_clients=10, analytical_clients=5,
            mean_think_s=0.25,
        )
        return state["over"]["report"]

    run_once(benchmark, workload)

    base, over = state["base"], state["over"]
    rows = [
        (name, run["report"].completed, run["report"].shed,
         run["report"].timed_out, f"{run['report'].goodput:.3f}",
         f"{run['p99_s']:.3f}")
        for name, run in (("1.0x", base), ("overload", over))
    ]
    print_series(
        "Service gateway saturation: 1x vs overload",
        ["load", "completed", "shed", "timed_out", "goodput_rps", "p99_s"],
        rows,
    )

    # Past the knee: shedding engages and every shed carries a hint.
    assert over["report"].shed > 0, "overload did not engage load shedding"
    shed_rows = over["gateway"].requests_with_status("shed")
    assert all(r.retry_after_s > 0 for r in shed_rows), (
        "a shed request carried no retry-after hint"
    )
    # Goodput plateaus instead of collapsing...
    assert over["report"].completed >= base["report"].completed * 0.7, (
        f"goodput collapsed: {over['report'].completed} completed under "
        f"overload vs {base['report'].completed} at 1x"
    )
    # ...and the p99 of requests the gateway *accepted* stays bounded:
    # the queue deadline caps the wait (late arrivals time out rather
    # than being served arbitrarily late), leaving only execution time.
    p99_bound = admission.QUEUE_DEADLINE_S + 2.0 * max(base["p99_s"], 1.0)
    assert over["p99_s"] <= p99_bound, (
        f"admitted p99 {over['p99_s']:.3f}s exceeds the "
        f"{p99_bound:.3f}s deadline-derived bound"
    )

    benchmark.extra_info["base_completed"] = base["report"].completed
    benchmark.extra_info["base_goodput"] = round(base["report"].goodput, 6)
    benchmark.extra_info["base_p99_s"] = round(base["p99_s"], 6)
    benchmark.extra_info["over_completed"] = over["report"].completed
    benchmark.extra_info["over_shed"] = over["report"].shed
    benchmark.extra_info["over_timed_out"] = over["report"].timed_out
    benchmark.extra_info["over_goodput"] = round(over["report"].goodput, 6)
    benchmark.extra_info["over_p99_s"] = round(over["p99_s"], 6)


if __name__ == "__main__":
    from benchmarks.support import bench_main

    bench_main(
        test_fig12_wp3_concurrency,
        test_service_gateway_throughput,
        test_service_saturation,
    )
