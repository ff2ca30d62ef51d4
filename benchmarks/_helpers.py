"""Shared machinery for the figure benches.

The Fig 8/9/10 benches share one cluster-size sweep and the Fig 11/12/14-19
benches share one six-scheduler run; both are computed once per pytest
session and cached here.  Every bench prints its table (so it lands in
``bench_output.txt``) and also writes it under ``benchmarks/results/``.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation, SimulationResult
from repro.core.plancache import PlanCache
from repro.registry import STACKS, SchedulerStack, make_stack
from repro.schedulers.base import WorkflowScheduler
from repro.workflow.model import Workflow
from repro.workloads.topologies import fig11_workflows
from repro.workloads.yahoo import YahooTraceConfig, generate_yahoo_workflows

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The paper's six stacks (repro.registry.STACKS) by figure label, in its
#: plotting order; the benches key their runs and rows by these labels.
STACK_BY_LABEL: Dict[str, SchedulerStack] = {stack.label: stack for stack in STACKS}

#: One plan cache per WOHA stack, shared by every bench in the session.
#: Cached plans are byte-identical to freshly generated ones
#: (tests/integration/test_plan_equivalence.py), so this only removes the
#: repeated cap searches when several benches replan the same workloads.
PLAN_CACHES: Dict[str, PlanCache] = {
    stack.label: PlanCache(capacity=1024) for stack in STACKS if stack.prioritizer
}

#: The paper's Fig 8-10 cluster sizes: "200m-200r" etc.
CLUSTER_SIZES: List[Tuple[int, int]] = [(200, 200), (240, 240), (280, 280)]


def build_stack(label: str) -> Tuple[WorkflowScheduler, str, Optional[Callable]]:
    """:func:`~repro.registry.make_stack` for a figure label, planning
    through that label's shared plan cache."""
    return make_stack(STACK_BY_LABEL[label].name, plan_cache=PLAN_CACHES.get(label))


def run_stack(
    label: str,
    workflows: List[Workflow],
    config: ClusterConfig,
) -> SimulationResult:
    """Run the stack with figure label ``label`` over the workflows."""
    scheduler, mode, planner = build_stack(label)
    sim = ClusterSimulation(config, scheduler, submission=mode, planner=planner)
    sim.add_workflows(workflows)
    return sim.run()


@functools.lru_cache(maxsize=None)
def yahoo_trace() -> Tuple[Workflow, ...]:
    """The Fig 8-10 input: singletons dropped, as in the paper."""
    return tuple(generate_yahoo_workflows(YahooTraceConfig(drop_single_job=True)))


@functools.lru_cache(maxsize=None)
def fig8_sweep() -> Dict[Tuple[str, Tuple[int, int]], SimulationResult]:
    """All 18 (scheduler x cluster-size) runs behind Figs 8, 9 and 10."""
    workflows = list(yahoo_trace())
    results: Dict[Tuple[str, Tuple[int, int]], SimulationResult] = {}
    for maps, reduces in CLUSTER_SIZES:
        config = ClusterConfig.from_total_slots(maps, reduces, nodes=40, heartbeat_interval=float("inf"))
        for label in STACK_BY_LABEL:
            results[(label, (maps, reduces))] = run_stack(label, workflows, config)
    return results


@functools.lru_cache(maxsize=None)
def fig11_runs() -> Dict[str, SimulationResult]:
    """The six scheduler runs behind Figs 11, 12 and 14-19."""
    config = ClusterConfig(
        num_nodes=32, map_slots_per_node=2, reduce_slots_per_node=1, heartbeat_interval=float("inf")
    )
    return {label: run_stack(label, fig11_workflows(), config) for label in STACK_BY_LABEL}


def emit(figure: str, table: str) -> None:
    """Print a bench table and persist it under benchmarks/results/."""
    print(f"\n{table}\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{figure}.txt"), "w") as fh:
        fh.write(table + "\n")
