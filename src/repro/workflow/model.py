"""The workflow model of paper §II.

A workflow ``W_i = {J_i, P_i, S_i, D_i}`` is a set of Map-Reduce jobs
(*wjobs*) with prerequisite relations, a submission time ``S_i`` and a
deadline ``D_i``.  A wjob ``J_i^j`` has ``m_i^j`` map tasks, each estimated to
take ``M_i^j`` seconds, and ``r_i^j`` reduce tasks, each estimated to take
``R_i^j`` seconds.

:class:`WJob` and :class:`Workflow` are immutable descriptions — runtime state
(how many tasks have been scheduled, which jobs finished) lives in
:mod:`repro.cluster.job` and the schedulers.  Keeping the description frozen
means a single workflow object can be submitted to many simulations (e.g. the
recurrence experiments of Fig 12) without cross-talk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, TypeVar

__all__ = ["WJob", "Workflow", "WorkflowValidationError"]

_T = TypeVar("_T")


class WorkflowValidationError(ValueError):
    """Raised when a workflow description is structurally invalid.

    Covers duplicate job names, dangling prerequisite references, cycles,
    non-positive task counts or durations, non-finite durations, submit
    times or deadlines, and deadline/submit-time inconsistencies.
    """


def check_task_fields(
    where: str,
    maps: int,
    reduces: int,
    map_duration: float,
    reduce_duration: float,
    keys: Tuple[str, str, str, str] = ("maps", "reduces", "map_duration", "reduce_duration"),
) -> None:
    """Reject a negative task count, a job with no tasks, or a non-positive
    duration for a phase that has tasks, naming the field.

    ``keys`` spell the four fields as the input does (the default is the
    JSON spelling; XML says ``map-duration``) and ``where`` names the
    workflow and the job, so a reader that checks before building the
    :class:`WJob` reports the field the user wrote.
    """
    maps_key, reduces_key, map_key, reduce_key = keys
    if maps < 0:
        raise WorkflowValidationError(f"{where}: {maps_key!r} must be >= 0, got {maps}")
    if reduces < 0:
        raise WorkflowValidationError(f"{where}: {reduces_key!r} must be >= 0, got {reduces}")
    if maps == 0 and reduces == 0:
        raise WorkflowValidationError(
            f"{where}: job has no tasks ({maps_key!r} and {reduces_key!r} are both 0)"
        )
    if maps > 0 and map_duration <= 0:
        raise WorkflowValidationError(
            f"{where}: {map_key!r} must be positive when {maps_key!r} > 0, got {map_duration:g}"
        )
    if reduces > 0 and reduce_duration <= 0:
        raise WorkflowValidationError(
            f"{where}: {reduce_key!r} must be positive when {reduces_key!r} > 0, "
            f"got {reduce_duration:g}"
        )


#: :func:`check_task_fields` keys for a :class:`WJob` built in code.
_WJOB_KEYS = ("num_maps", "num_reduces", "map_duration", "reduce_duration")


@dataclass(frozen=True)
class WJob:
    """One Map-Reduce job inside a workflow (a *wjob*).

    Attributes:
        name: unique name within the workflow.
        num_maps: ``m_i^j`` — number of map tasks (>= 0; a map-only job has
            ``num_reduces == 0``, a reduce-only job ``num_maps == 0``; at
            least one phase must be non-empty).
        num_reduces: ``r_i^j`` — number of reduce tasks.
        map_duration: ``M_i^j`` — estimated seconds per map task.
        reduce_duration: ``R_i^j`` — estimated seconds per reduce task.
        prerequisites: names of wjobs in ``P_i^j`` that must finish first.
        inputs / outputs: HDFS paths; used by the configuration validator to
            infer prerequisites when they are not given explicitly.
        jar_path / main_class: recorded for config fidelity (the simulator
            does not execute user code).
    """

    name: str
    num_maps: int
    num_reduces: int
    map_duration: float
    reduce_duration: float
    prerequisites: FrozenSet[str] = frozenset()
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    jar_path: Optional[str] = None
    main_class: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowValidationError("wjob name must be non-empty")
        if not math.isfinite(self.map_duration):
            raise WorkflowValidationError(f"{self.name}: non-finite map duration")
        if not math.isfinite(self.reduce_duration):
            raise WorkflowValidationError(f"{self.name}: non-finite reduce duration")
        check_task_fields(self.name, self.num_maps, self.num_reduces, self.map_duration,
                          self.reduce_duration, _WJOB_KEYS)
        if self.name in self.prerequisites:
            raise WorkflowValidationError(f"{self.name}: job depends on itself")
        # Normalise collection types so hashing/equality behave.
        object.__setattr__(self, "prerequisites", frozenset(self.prerequisites))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))

    @property
    def total_tasks(self) -> int:
        """``m_i^j + r_i^j``."""
        return self.num_maps + self.num_reduces

    @property
    def serial_length(self) -> float:
        """Estimated map-phase + reduce-phase latency with unlimited slots.

        This is the *job length* used by Longest Path First (paper §V-C):
        the sum of the estimated map task execution time and the estimated
        reduce task execution time.
        """
        length = 0.0
        if self.num_maps > 0:
            length += self.map_duration
        if self.num_reduces > 0:
            length += self.reduce_duration
        return length

    @property
    def total_work(self) -> float:
        """Total slot-seconds the job needs."""
        return self.num_maps * self.map_duration + self.num_reduces * self.reduce_duration


class Workflow:
    """An immutable DAG of :class:`WJob` with a submit time and a deadline.

    Args:
        name: workflow identifier.
        jobs: the wjobs; names must be unique.
        submit_time: ``S_i`` in simulated seconds.
        deadline: absolute deadline ``D_i``; ``None`` means best-effort
            (no deadline — used by throughput-style experiments).

    Raises:
        WorkflowValidationError: on duplicate names, dangling prerequisites
            or dependency cycles.
    """

    def __init__(
        self,
        name: str,
        jobs: Iterable[WJob],
        submit_time: float = 0.0,
        deadline: Optional[float] = None,
    ) -> None:
        self.name = name
        self.jobs: Tuple[WJob, ...] = tuple(jobs)
        if not self.name:
            raise WorkflowValidationError("workflow name must be non-empty")
        if not self.jobs:
            raise WorkflowValidationError(f"{name}: workflow has no jobs")
        self._set_timing(submit_time, deadline)
        self._by_name: Dict[str, WJob] = {}
        for job in self.jobs:
            if job.name in self._by_name:
                raise WorkflowValidationError(f"{name}: duplicate job name {job.name!r}")
            self._by_name[job.name] = job
        for job in self.jobs:
            # Sorted so *which* missing prerequisite gets reported does not
            # depend on set order — errors are part of the observable output.
            for pre in sorted(job.prerequisites):
                if pre not in self._by_name:
                    raise WorkflowValidationError(
                        f"{name}: job {job.name!r} requires unknown job {pre!r}"
                    )
        self._dependents: Dict[str, FrozenSet[str]] = self._compute_dependents()
        self._topo_order: Tuple[str, ...] = self._toposort()
        #: fn -> fn(self), filled by :meth:`derived`.
        self._derived: Dict[Callable[["Workflow"], Any], Any] = {}

    def _set_timing(self, submit_time: float, deadline: Optional[float]) -> None:
        """Validate and set ``S_i`` / ``D_i`` (constructor and :meth:`with_timing`)."""
        self.submit_time = float(submit_time)
        self.deadline = None if deadline is None else float(deadline)
        # Negated acceptance tests, so NaN (false in every comparison) fails.
        if not -math.inf < self.submit_time < math.inf:
            raise WorkflowValidationError(f"{self.name}: non-finite submit time {self.submit_time}")
        if self.deadline is not None and not self.deadline < math.inf:
            raise WorkflowValidationError(f"{self.name}: non-finite deadline {self.deadline}")
        if self.deadline is not None and self.deadline < self.submit_time:
            raise WorkflowValidationError(
                f"{self.name}: deadline {self.deadline} precedes submit time {self.submit_time}"
            )

    # -- structure -----------------------------------------------------

    def _compute_dependents(self) -> Dict[str, FrozenSet[str]]:
        """Invert prerequisites into the dependent sets ``D_i^j`` of §IV-A."""
        dependents: Dict[str, set] = {job.name: set() for job in self.jobs}
        for job in self.jobs:
            for pre in sorted(job.prerequisites):
                dependents[pre].add(job.name)
        return {name: frozenset(deps) for name, deps in dependents.items()}

    def _toposort(self) -> Tuple[str, ...]:
        """Kahn's algorithm; deterministic (insertion-ordered) tie-break."""
        indegree = {job.name: len(job.prerequisites) for job in self.jobs}
        ready = [job.name for job in self.jobs if indegree[job.name] == 0]
        order: List[str] = []
        head = 0
        while head < len(ready):
            name = ready[head]
            head += 1
            order.append(name)
            for dep in sorted(self._dependents[name]):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(self.jobs):
            cyclic = sorted(n for n, d in indegree.items() if d > 0)
            raise WorkflowValidationError(f"{self.name}: dependency cycle among {cyclic}")
        return tuple(order)

    def derived(self, fn: Callable[["Workflow"], _T]) -> _T:
        """``fn(self)``, computed on the first call and memoized per object.

        For pure functions of the workflow — the §V-C priority orders, the
        longest-path weights, the plan-cache structure key.  A workflow is
        immutable and hashes by identity, so the memo lives and dies with
        the object, and a caller that gets the same object back (the serve
        tier's parse memo, a simulation's workflow pool) pays for each
        value once.  The value is shared by every caller: never mutate it.
        """
        memo = self._derived
        try:
            return memo[fn]
        except KeyError:
            value = memo[fn] = fn(self)
            return value

    # -- accessors -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.jobs)

    def __contains__(self, job_name: str) -> bool:
        return job_name in self._by_name

    def __iter__(self):
        return iter(self.jobs)

    def job(self, name: str) -> WJob:
        """Look a wjob up by name."""
        return self._by_name[name]

    def job_names(self) -> Tuple[str, ...]:
        return tuple(job.name for job in self.jobs)

    def dependents(self, job_name: str) -> FrozenSet[str]:
        """``D_i^j``: jobs that list ``job_name`` as a prerequisite."""
        return self._dependents[job_name]

    def prerequisites(self, job_name: str) -> FrozenSet[str]:
        """``P_i^j``."""
        return self._by_name[job_name].prerequisites

    def topological_order(self) -> Tuple[str, ...]:
        """Job names in a deterministic topological order."""
        return self._topo_order

    def roots(self) -> Tuple[str, ...]:
        """Jobs with no prerequisites — runnable at submission."""
        return tuple(job.name for job in self.jobs if not job.prerequisites)

    def sinks(self) -> Tuple[str, ...]:
        """Jobs nothing depends on."""
        return tuple(job.name for job in self.jobs if not self._dependents[job.name])

    @property
    def total_tasks(self) -> int:
        """Total number of map+reduce tasks across all wjobs."""
        return sum(job.total_tasks for job in self.jobs)

    @property
    def total_work(self) -> float:
        """Total slot-seconds across all wjobs."""
        return self.derived(_total_work)

    @property
    def relative_deadline(self) -> Optional[float]:
        """``D_i - S_i``, or ``None`` for best-effort workflows."""
        if self.deadline is None:
            return None
        return self.deadline - self.submit_time

    def with_timing(self, submit_time: float, deadline: Optional[float]) -> "Workflow":
        """A copy of this workflow with new ``S_i`` / ``D_i``.

        Used for recurrent submissions (Fig 12) where the same topology is
        released repeatedly with shifted timing.  The copy shares this
        workflow's already-validated structure (job index, dependents,
        topological order) and checks only the new timing; it starts with
        an empty :meth:`derived` memo.
        """
        retimed = Workflow.__new__(Workflow)
        retimed.name, retimed.jobs = self.name, self.jobs
        retimed._set_timing(submit_time, deadline)
        retimed._by_name, retimed._dependents = self._by_name, self._dependents
        retimed._topo_order = self._topo_order
        retimed._derived = {}
        return retimed

    def renamed(self, name: str) -> "Workflow":
        """A copy with a different workflow name (recurrence instances)."""
        return Workflow(name, self.jobs, submit_time=self.submit_time, deadline=self.deadline)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dl = "best-effort" if self.deadline is None else f"D={self.deadline:g}"
        return f"Workflow({self.name!r}, jobs={len(self.jobs)}, S={self.submit_time:g}, {dl})"


def _total_work(workflow: Workflow) -> float:
    return sum(job.total_work for job in workflow.jobs)
