"""Picklable scenario registry for the sharded experiment runner.

Each scenario is a module-level function ``(seed, scale) -> (workflows,
outages)`` so a worker process can regenerate its cell's workload from two
numbers instead of unpickling workflow graphs.  Everything derives from the
given seed through :func:`numpy.random.default_rng` — never from wall clock
or process identity — so the same cell produces the same workload in any
worker, in any process, in any order (the determinism bar the runner's
sequential-equality tests pin).

``scale`` stretches the workload size continuously: 1.0 is the reference
size (the bench tier), small fractions give tier-1-friendly smoke grids.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.cluster.failures import Outage
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.model import Workflow
from repro.workloads.yahoo import YahooTraceConfig, generate_yahoo_workflows

__all__ = [
    "SCENARIOS",
    "periodic_scenario",
    "yahoo_scenario",
    "outages_scenario",
    "serve_scenario",
]

#: (workflows to run, outages to inject) — the runner's scenario contract.
ScenarioPayload = Tuple[List[Workflow], Tuple[Outage, ...]]


def _periodic_workflows(seed: int, scale: float) -> List[Workflow]:
    """Staggered long-task ETL chains with seeded duration jitter."""
    rng = np.random.default_rng(seed)
    count = max(1, round(6 * scale))
    workflows = []
    for i in range(count):
        task_s = float(rng.choice([120.0, 300.0, 600.0]))
        workflows.append(
            WorkflowBuilder(f"chain{i:03d}")
            .submit_at(float(5 * i))
            .job("extract", maps=8, reduces=4, map_s=task_s, reduce_s=task_s / 1.5)
            .job("transform", maps=6, reduces=2, map_s=task_s, reduce_s=task_s / 1.5,
                 after=["extract"])
            .job("load", maps=4, reduces=1, map_s=task_s / 1.5, reduce_s=task_s / 3,
                 after=["transform"])
            .deadline(relative=20 * task_s)
            .build()
        )
    return workflows


def periodic_scenario(seed: int, scale: float = 1.0) -> ScenarioPayload:
    """Long-task chains where ticks dominate; no failures."""
    return _periodic_workflows(seed, scale), ()


def yahoo_scenario(seed: int, scale: float = 1.0) -> ScenarioPayload:
    """A scaled Yahoo!-like workflow set (61 workflows / 180 jobs at 1.0).

    The composition shrinks with ``scale`` while staying feasible for
    :func:`~repro.workloads.yahoo.partition_jobs`: every multi-job
    workflow keeps between 2 and ``max_workflow_size`` jobs.
    """
    num_workflows = max(3, round(61 * scale))
    num_single = max(1, num_workflows // 4)
    total_jobs = num_single + 3 * (num_workflows - num_single)
    config = YahooTraceConfig(
        num_workflows=num_workflows,
        total_jobs=total_jobs,
        num_single_job=num_single,
        seed=seed,
        submission_window=600.0 * max(scale, 0.05),
    )
    return generate_yahoo_workflows(config), ()


def outages_scenario(seed: int, scale: float = 1.0) -> ScenarioPayload:
    """The periodic workload under seeded tracker kill/revive outages.

    Every outage revives, and outages hit distinct tracker ids, so all
    workflows eventually complete and the cell terminates.
    """
    workflows = _periodic_workflows(seed, scale)
    rng = np.random.default_rng(seed + 1)
    count = max(1, round(2 * scale))
    outages = tuple(
        Outage(
            time=round(float(rng.uniform(1.0, 90.0)), 1),
            tracker_id=i,
            down_for=round(float(rng.uniform(5.0, 60.0)), 1),
        )
        for i in range(count)
    )
    return workflows, outages


def serve_scenario(seed: int, scale: float = 1.0) -> ScenarioPayload:
    """Planning-*cost*-heavy templates for the serve tier's load tests.

    The other scenarios size their workflows for scheduling runs; here the
    expensive part is the client-side pipeline itself (cap search ×
    Algorithm 1), so each template is a wide fan-out/fan-in DAG with large
    task counts — milliseconds of planning, not microseconds — so the
    serve bench's cold mix measures the batcher's shared-setup fusion.
    ``scale`` stretches the template *count*; the per-template size is
    fixed so costs stay comparable across scales.
    """
    rng = np.random.default_rng(seed)
    count = max(2, round(4 * scale))
    workflows = []
    for i in range(count):
        map_s = float(rng.choice([30.0, 45.0, 60.0]))
        builder = (
            WorkflowBuilder(f"serve{i:03d}")
            .job("ingest", maps=96, reduces=16, map_s=map_s, reduce_s=2 * map_s)
        )
        for branch in range(6):
            builder.job(
                f"branch{branch}",
                maps=48 + 8 * branch,
                reduces=8,
                map_s=map_s * (1.0 + 0.1 * branch),
                reduce_s=map_s,
                after=["ingest"],
            )
        builder.job(
            "merge", maps=64, reduces=12, map_s=map_s, reduce_s=3 * map_s,
            after=[f"branch{b}" for b in range(6)],
        )
        builder.job("publish", maps=8, reduces=2, map_s=map_s / 2, reduce_s=map_s,
                    after=["merge"])
        workflows.append(builder.deadline(relative=60 * map_s).build())
    return workflows, ()


SCENARIOS: Dict[str, Callable[[int, float], ScenarioPayload]] = {
    "periodic": periodic_scenario,
    "yahoo": yahoo_scenario,
    "outages": outages_scenario,
    "serve": serve_scenario,
}
