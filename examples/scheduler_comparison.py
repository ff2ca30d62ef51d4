"""Reproduce the paper's Fig 11 experiment interactively.

Three workflows sharing the 33-job demonstration topology are submitted
five minutes apart with relative deadlines of 80, 70 and 60 minutes onto a
32-slave cluster.  Six schedulers compete: the Oozie-era baselines (FIFO,
Fair, EDF) and WOHA with each intra-workflow prioritizer (HLF, LPF, MPF).

Run:  python examples/scheduler_comparison.py
"""

from repro import ClusterConfig, ClusterSimulation
from repro.metrics.report import format_table
from repro.registry import STACKS, make_stack
from repro.workloads.topologies import fig11_workflows


def main() -> None:
    rows = []
    for stack in STACKS:
        scheduler, mode, planner = make_stack(stack.name)
        cluster = ClusterConfig(num_nodes=32, map_slots_per_node=2, reduce_slots_per_node=1)
        sim = ClusterSimulation(cluster, scheduler, submission=mode, planner=planner)
        sim.add_workflows(fig11_workflows())
        result = sim.run()
        rows.append(
            [
                stack.label,
                result.stats["W-1"].workspan,
                result.stats["W-2"].workspan,
                result.stats["W-3"].workspan,
                sum(1 for s in result.stats.values() if not s.met_deadline),
                result.utilization,
            ]
        )
    print(
        format_table(
            ["scheduler", "W-1 span (s)", "W-2 span (s)", "W-3 span (s)", "misses", "util"],
            rows,
            title="Fig 11 reproduction: workspans under six schedulers (deadlines 4800/4200/3600 s)",
            float_fmt="{:.1f}",
        )
    )


if __name__ == "__main__":
    main()
