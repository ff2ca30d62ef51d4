"""Replay the Yahoo!-like workflow trace under every scheduler.

Generates the 61-workflow / 180-job synthetic trace (the stand-in for the
paper's WebScope data, see DESIGN.md), drops single-job workflows as the
paper does, and reports deadline satisfaction and tardiness per scheduler
on a 200m-200r cluster.

Run:  python examples/trace_replay.py
"""

from repro import ClusterConfig, ClusterSimulation
from repro.metrics.report import format_table
from repro.registry import STACKS, make_stack
from repro.workloads.yahoo import YahooTraceConfig, generate_yahoo_workflows


def main() -> None:
    workflows = generate_yahoo_workflows(YahooTraceConfig(drop_single_job=True))
    print(
        f"trace: {len(workflows)} workflows, {sum(len(w) for w in workflows)} jobs, "
        f"{sum(w.total_tasks for w in workflows)} tasks\n"
    )
    rows = []
    for stack in STACKS:
        scheduler, mode, planner = make_stack(stack.name)
        cluster = ClusterConfig.from_total_slots(200, 200, nodes=40)
        sim = ClusterSimulation(cluster, scheduler, submission=mode, planner=planner)
        sim.add_workflows(workflows)
        result = sim.run()
        rows.append(
            [
                stack.label,
                result.miss_ratio,
                result.max_tardiness,
                result.total_tardiness,
                result.makespan,
                result.utilization,
            ]
        )
    print(
        format_table(
            ["scheduler", "miss ratio", "max tardiness (s)", "total tardiness (s)", "makespan (s)", "util"],
            rows,
            title="Yahoo!-like trace on a 200m-200r cluster",
        )
    )


if __name__ == "__main__":
    main()
