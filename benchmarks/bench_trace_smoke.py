"""Trace smoke check: tracing must not perturb any scheduler's decisions.

Runs a contended mixed workload through every stack of the paper's
evaluation twice — decision tracing on and off — and asserts the full
assignment sequence (launch time, task id, tracker) is byte-identical.
This is the observability layer's CI gate: a tracer that changes even one
decision invalidates every conclusion drawn from its logs.

Run standalone (``python -m benchmarks.bench_trace_smoke``) or via pytest.
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.model import Workflow

from benchmarks._helpers import STACK_BY_LABEL, build_stack, emit


def smoke_workflows() -> List[Workflow]:
    """A small but contended mix: staggered deadlines, a chain, a filler."""
    workflows = []
    for i in range(4):
        workflows.append(
            WorkflowBuilder(f"dl{i}")
            .job("a", maps=8, reduces=2, map_s=15, reduce_s=30)
            .deadline(relative=200.0 + 40.0 * i)
            .submit_at(6.0 * i)
            .build()
        )
    workflows.append(
        WorkflowBuilder("chain")
        .job("x", maps=4, reduces=1, map_s=10, reduce_s=20)
        .job("y", maps=4, reduces=1, map_s=10, reduce_s=20, after=["x"])
        .deadline(relative=400.0)
        .build()
    )
    workflows.append(
        WorkflowBuilder("filler").job("f", maps=24, reduces=0, map_s=12).build()
    )
    return workflows


def assignment_sequence(label: str, trace: bool) -> Tuple[List, int]:
    """Run one stack; return (launch sequence, decision-event count)."""
    scheduler, mode, planner = build_stack(label)
    config = ClusterConfig(
        num_nodes=4, map_slots_per_node=2, reduce_slots_per_node=1,
        heartbeat_interval=float("inf"),
    )
    sim = ClusterSimulation(config, scheduler, submission=mode, planner=planner, trace=trace)
    launches: List = []

    class Log:
        def on_task_launch(self, task, now):
            launches.append((now, task.task_id))

    sim.jobtracker.add_listener(Log())
    sim.add_workflows(smoke_workflows())
    result = sim.run()
    decisions = len(result.tracer.events("decision")) if result.tracer else 0
    return launches, decisions


def check_all_stacks() -> List[List]:
    """Compare traced vs untraced sequences for every stack; returns rows."""
    rows = []
    for name in STACK_BY_LABEL:
        plain, _ = assignment_sequence(name, trace=False)
        traced, decisions = assignment_sequence(name, trace=True)
        identical = json.dumps(traced).encode() == json.dumps(plain).encode()
        rows.append([name, len(plain), decisions, "ok" if identical else "DIVERGED"])
        if not identical:
            raise AssertionError(
                f"{name}: tracing changed the assignment sequence "
                f"({len(plain)} untraced vs {len(traced)} traced launches)"
            )
    return rows


def test_trace_smoke(benchmark):
    rows = benchmark.pedantic(check_all_stacks, rounds=1, iterations=1)
    from repro.metrics.report import format_table

    table = format_table(
        ["stack", "launches", "decisions", "invariant"],
        rows,
        title="trace smoke: assignment sequences with tracing on vs off",
    )
    emit("trace_smoke", table)
    assert all(row[3] == "ok" for row in rows)


def main() -> int:
    """Standalone entry point for CI: exit non-zero on any divergence."""
    rows = check_all_stacks()
    for name, launches, decisions, verdict in rows:
        print(f"{name:10s} launches={launches:4d} decisions={decisions:5d} {verdict}")
    print("trace smoke: all stacks replay identically under tracing")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
