"""Render the reproduced figures as SVG images (no plotting library needed).

Re-runs the key experiments and writes SVG counterparts of the paper's
plots into ``figures/``:

* fig08_miss_ratio.svg  — grouped bars, miss ratio vs cluster size
* fig11_workspan.svg    — grouped bars, workspans under six schedulers
* fig13a_throughput.svg — log-log lines, AssignTask throughput
* fig02_progress.svg    — step curves, capped vs uncapped plan requirements
* fig17_allocation.svg  — WOHA-LPF map-slot allocation time series

Run:  python examples/render_figures.py          (~1 minute)
"""

import os

from repro import ClusterConfig, ClusterSimulation, WorkflowBuilder
from repro.cluster.tasks import TaskKind
from repro.core.plangen import generate_requirements
from repro.metrics.svgplot import GroupedBarChart, SvgChart
from repro.registry import STACKS, make_stack
from repro.workloads.topologies import fig11_workflows
from repro.workloads.yahoo import YahooTraceConfig, generate_yahoo_workflows

OUT_DIR = "figures"


def run(stack, workflows, config):
    scheduler, mode, planner = make_stack(stack.name)
    sim = ClusterSimulation(config, scheduler, submission=mode, planner=planner)
    sim.add_workflows(workflows)
    return sim.run()


def fig08():
    trace = generate_yahoo_workflows(YahooTraceConfig(drop_single_job=True))
    sizes = [(200, 200), (240, 240), (280, 280)]
    chart = GroupedBarChart(
        title="Fig 8: deadline miss ratio vs cluster size",
        xlabel="cluster size",
        ylabel="miss ratio",
    )
    chart.set_groups([f"{m}m-{r}r" for m, r in sizes])
    for stack in STACKS:
        values = []
        for m, r in sizes:
            config = ClusterConfig.from_total_slots(m, r, nodes=40, heartbeat_interval=float("inf"))
            values.append(run(stack, trace, config).miss_ratio)
        chart.add_series(stack.label, values)
    chart.save(os.path.join(OUT_DIR, "fig08_miss_ratio.svg"))


def fig11_and_17():
    config = ClusterConfig(
        num_nodes=32, map_slots_per_node=2, reduce_slots_per_node=1, heartbeat_interval=float("inf")
    )
    bars = GroupedBarChart(
        title="Fig 11: workspans (deadlines 4800/4200/3600 s)",
        xlabel="workflow",
        ylabel="workspan (s)",
    )
    bars.set_groups(["W-1", "W-2", "W-3"])
    woha_result = None
    for stack in STACKS:
        result = run(stack, fig11_workflows(), config)
        bars.add_series(stack.label, [result.stats[w].workspan for w in ("W-1", "W-2", "W-3")])
        if stack.name == "woha-lpf":
            woha_result = result
    bars.save(os.path.join(OUT_DIR, "fig11_workspan.svg"))

    timeline = SvgChart(
        title="Fig 17: WOHA-LPF map-slot allocation",
        xlabel="time (s)",
        ylabel="map slots in use",
    )
    times, counts = woha_result.metrics.allocation_matrix(TaskKind.MAP, ["W-1", "W-2", "W-3"], step=60.0)
    for wf in ("W-1", "W-2", "W-3"):
        timeline.add_step(times, counts[wf], label=wf)
    timeline.save(os.path.join(OUT_DIR, "fig17_allocation.svg"))


def fig13a():
    import sys

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, repo_root)
    from benchmarks.bench_fig13a_throughput import (
        NAIVE_MAX,
        QUEUE_LENGTHS,
        backend_factory,
        build_queue,
        measure,
    )

    chart = SvgChart(
        title="Fig 13a: AssignTask throughput vs queue length",
        xlabel="workflow queue length",
        ylabel="calls per second",
        xlog=True,
        ylog=True,
    )
    for backend, label in (("dsl", "WOHA-DSL"), ("bst", "WOHA-BST"), ("naive", "WOHA-Naive")):
        xs, ys = [], []
        for n in QUEUE_LENGTHS:
            if backend == "naive" and n > NAIVE_MAX:
                continue
            scheduler = backend_factory(backend)
            wips = build_queue(scheduler, n)
            calls = 200 if backend != "naive" else max(10, 2000 // max(1, n // 10))
            measure(scheduler, wips, 20)
            xs.append(n)
            ys.append(measure(scheduler, wips, calls, start_now=1.0))
        chart.add_line(xs, ys, label=label)
    chart.save(os.path.join(OUT_DIR, "fig13a_throughput.svg"))


def fig02():
    w = (
        WorkflowBuilder("probe")
        .job("j1", maps=3, reduces=3, map_s=1.0, reduce_s=1.0)
        .job("j2", maps=3, reduces=3, map_s=1.0, reduce_s=1.0, after=["j1"])
        .deadline(relative=9.0)
        .build()
    )
    chart = SvgChart(
        title="Fig 2: progress requirements, capped vs uncapped (D=9)",
        xlabel="time",
        ylabel="tasks required scheduled",
    )
    for cap, label in ((6, "cap = 6 (full cluster)"), (2, "cap = 2 (searched)")):
        plan = generate_requirements(w, cap)
        times = [t / 2.0 for t in range(0, 19)]
        chart.add_step(times, [plan.requirement_at_time(9.0, t) for t in times], label=label)
    chart.save(os.path.join(OUT_DIR, "fig02_progress.svg"))


def main() -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    for fn in (fig02, fig08, fig11_and_17, fig13a):
        fn()
        print(f"rendered {fn.__name__}")
    print(f"\nSVGs written to {OUT_DIR}/")


if __name__ == "__main__":
    main()
