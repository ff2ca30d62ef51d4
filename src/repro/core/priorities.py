"""Intra-workflow job prioritization (paper §V-C): HLF, LPF, MPF.

Each function returns the workflow's job names **highest priority first**;
Algorithm 1 and the Workflow Scheduler both consume this order.  Ties are
broken by the job's position in the workflow definition ("job IDs in the
workflow"), keeping every run deterministic.

An order is a pure function of the DAG, so each is memoized on the
workflow (:meth:`~repro.workflow.model.Workflow.derived`): planning a
recurrent workflow object again — a serve-tier cache hit, a replan, a
simulation's pooled instance — sorts its jobs once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.workflow import dag
from repro.workflow.model import Workflow

__all__ = ["hlf_order", "lpf_order", "mpf_order", "PRIORITIZERS"]

Prioritizer = Callable[[Workflow], Tuple[str, ...]]


def _indexed(workflow: Workflow) -> Dict[str, int]:
    return {job.name: i for i, job in enumerate(workflow.jobs)}


def hlf_order(workflow: Workflow) -> Tuple[str, ...]:
    """Highest Level First: jobs heading longer chains of dependents run
    first.  Level 0 holds jobs with no dependents; higher levels feed them."""
    return workflow.derived(_hlf_order)


def lpf_order(workflow: Workflow) -> Tuple[str, ...]:
    """Longest Path First: like HLF but weighting each job by its estimated
    serial length (map time + reduce time), so heavy chains outrank long
    thin ones."""
    return workflow.derived(_lpf_order)


def mpf_order(workflow: Workflow) -> Tuple[str, ...]:
    """Maximum Parallelism First: jobs with the most direct dependents run
    first, maximising the chance the workflow has runnable tasks whenever
    it holds the highest priority."""
    return workflow.derived(_mpf_order)


def _hlf_order(workflow: Workflow) -> Tuple[str, ...]:
    level = dag.levels(workflow)
    index = _indexed(workflow)
    return tuple(sorted(workflow.job_names(), key=lambda n: (-level[n], index[n])))


def _lpf_order(workflow: Workflow) -> Tuple[str, ...]:
    weight = dag.longest_path_weights(workflow)
    index = _indexed(workflow)
    return tuple(sorted(workflow.job_names(), key=lambda n: (-weight[n], index[n])))


def _mpf_order(workflow: Workflow) -> Tuple[str, ...]:
    index = _indexed(workflow)
    return tuple(
        sorted(workflow.job_names(), key=lambda n: (-len(workflow.dependents(n)), index[n]))
    )


PRIORITIZERS: Dict[str, Prioritizer] = {
    "hlf": hlf_order,
    "lpf": lpf_order,
    "mpf": mpf_order,
}
