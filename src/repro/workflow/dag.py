"""DAG analysis utilities over :class:`~repro.workflow.model.Workflow`.

These are the graph primitives the intra-workflow prioritizers of §V-C
(HLF / LPF / MPF) and the workload generators are built on: level
assignment, longest (critical) paths, ancestor/descendant closures.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.workflow.model import Workflow

__all__ = [
    "levels",
    "height",
    "longest_path_weights",
    "critical_path",
    "critical_path_length",
    "ancestors",
    "descendants",
    "is_chain",
    "width_profile",
]


def levels(workflow: Workflow) -> Dict[str, int]:
    """Assign each job its HLF level (paper §V-C).

    Jobs with no dependents are level 0.  A job's level is one more than the
    maximum level of its dependents, so jobs heading long chains get high
    levels.  (This is height measured from the sinks.)
    """
    result: Dict[str, int] = {}
    for name in reversed(workflow.topological_order()):
        deps = workflow.dependents(name)
        result[name] = 0 if not deps else 1 + max(result[d] for d in deps)
    return result


def height(workflow: Workflow) -> int:
    """Number of levels in the workflow (length of the longest job chain)."""
    return 1 + max(levels(workflow).values())


def longest_path_weights(workflow: Workflow) -> Dict[str, float]:
    """For each job, the weight of the heaviest job-chain starting at it.

    The weight of a job is its :attr:`~repro.workflow.model.WJob.serial_length`
    (estimated map time + reduce time), matching LPF's definition of job
    length in §V-C.  The returned value includes the job itself.
    """
    result: Dict[str, float] = {}
    for name in reversed(workflow.topological_order()):
        job = workflow.job(name)
        deps = workflow.dependents(name)
        downstream = max((result[d] for d in deps), default=0.0)
        result[name] = job.serial_length + downstream
    return result


def critical_path(
    workflow: Workflow, weights: Optional[Dict[str, float]] = None
) -> Tuple[str, ...]:
    """The job names along the heaviest root-to-sink chain.

    Ties are broken lexicographically so the result is deterministic.
    ``weights`` is this workflow's :func:`longest_path_weights`, for
    callers that already computed them.
    """
    if weights is None:
        weights = longest_path_weights(workflow)
    start = min(
        (name for name in workflow.job_names()),
        key=lambda n: (-weights[n], n),
    )
    path: List[str] = [start]
    current = start
    while True:
        deps = workflow.dependents(current)
        if not deps:
            break
        current = min(deps, key=lambda n: (-weights[n], n))
        path.append(current)
    return tuple(path)


def critical_path_length(workflow: Workflow) -> float:
    """Weight of the critical path — a lower bound on any schedule's makespan."""
    weights = longest_path_weights(workflow)
    return max(weights.values())


def ancestors(workflow: Workflow, job_name: str) -> FrozenSet[str]:
    """All transitive prerequisites of ``job_name`` (not including itself)."""
    seen: Set[str] = set()
    frontier = list(workflow.prerequisites(job_name))
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier.extend(workflow.prerequisites(name))
    return frozenset(seen)


def descendants(workflow: Workflow, job_name: str) -> FrozenSet[str]:
    """All transitive dependents of ``job_name`` (not including itself)."""
    seen: Set[str] = set()
    frontier = list(workflow.dependents(job_name))
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier.extend(workflow.dependents(name))
    return frozenset(seen)


def is_chain(workflow: Workflow) -> bool:
    """True when the workflow is a simple linear sequence of jobs."""
    return all(
        len(workflow.prerequisites(n)) <= 1 and len(workflow.dependents(n)) <= 1
        for n in workflow.job_names()
    ) and len(workflow.roots()) == 1


def width_profile(workflow: Workflow) -> List[int]:
    """Number of jobs at each HLF level, indexed from the deepest level.

    ``width_profile(w)[k]`` is how many jobs sit at level
    ``height(w) - 1 - k``; the list reads top (sources) to bottom (sinks).
    Useful for characterising generated topologies in tests and workload
    summaries.
    """
    lvl = levels(workflow)
    top = max(lvl.values())
    counts = [0] * (top + 1)
    for value in lvl.values():
        counts[top - value] += 1
    return counts
