"""The Workflow Scheduler interface the JobTracker consults.

In WOHA (paper §III-B) the JobTracker delegates every task-assignment
decision triggered by a heartbeat to a pluggable *Workflow Scheduler*; users
swap implementations by editing ``workflow-scheduler.xml``.  Here the
equivalent is passing a different :class:`WorkflowScheduler` to the
simulation.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, List, Optional, Union

from repro.analysis.contracts import NULL_CONTRACTS
from repro.cluster.tasks import Task, TaskKind
from repro.trace import NULL_TRACER, DecisionTracer, NullTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.job import JobInProgress
    from repro.cluster.jobtracker import JobTracker, WorkflowInProgress

__all__ = ["WorkflowScheduler"]


class WorkflowScheduler(abc.ABC):
    """Task-assignment policy plugged into the JobTracker.

    Lifecycle callbacks keep the scheduler's internal queues in sync with
    the cluster; :meth:`select_task` answers "which task should the next
    free slot of this kind run?" and is called once per assignment, exactly
    like Hadoop-1's ``TaskScheduler.assignTasks`` loop.

    Implementations hold a :mod:`repro.trace` tracer (the no-op
    :data:`~repro.trace.NULL_TRACER` until one is attached) and emit one
    ``decision`` event per ``select_task`` call through
    :meth:`trace_decision` when it is enabled.
    Instrumentation must be strictly observational: attaching a tracer may
    never change which task a call returns.
    """

    #: Display name used in traces and counter tables; subclasses override.
    name = "scheduler"

    #: Whether a ``select_task`` call that returns ``None`` changes no state
    #: a later decision reads.  Untraced scheduling rounds then reuse a
    #: proven-idle answer instead of asking again (DESIGN.md §10).  A
    #: scheduler whose every call does work of its own, such as a replan
    #: check, declares ``False`` and is asked on every round.
    pure_idle_select = True

    def __init__(self) -> None:
        self.jobtracker: Optional["JobTracker"] = None
        self.tracer: Union[DecisionTracer, NullTracer] = NULL_TRACER
        self.contracts = NULL_CONTRACTS
        # Conservative per-kind runnability hints for the JobTracker's
        # quiescent-heartbeat fast path (see DESIGN.md §10).  ``False``
        # only ever means "a select_task call returned None and no state
        # change has been observed since" — a proven-idle answer the
        # JobTracker may reuse without consulting the (stateful)
        # select_task again.  ``True`` means "maybe"; false positives
        # cost one select_task call, false negatives would change
        # decisions and are therefore impossible by construction.
        # Flat booleans, not an enum-keyed dict: the quiescence test and
        # the parked-timer wake scan read them once per tracker per event,
        # and an enum-keyed lookup pays enum ``__hash__`` dispatch per read.
        self.maybe_map = True
        self.maybe_reduce = True

    def bind(self, jobtracker: "JobTracker") -> None:
        """Called once by the JobTracker before any other callback."""
        self.jobtracker = jobtracker

    def attach_tracer(self, tracer: Union[DecisionTracer, NullTracer]) -> None:
        """Start emitting decision events into ``tracer``."""
        self.tracer = tracer

    def attach_contracts(self, checker) -> None:
        """Enable runtime invariant checks (:mod:`repro.analysis.contracts`).

        The base implementation only stores the checker; schedulers with
        checkable internal structures (e.g. :class:`WohaScheduler`'s Double
        Skip List queue) override this to forward it.  Like tracing,
        contract checking is strictly observational.
        """
        self.contracts = checker

    # -- runnability hints (quiescent-heartbeat fast path) -----------------

    def note_state_change(self) -> None:
        """Invalidate idle hints: cluster state changed in a way that could
        make ``select_task`` answer differently (submission, completion,
        plan install, tracker death/revival)."""
        self.maybe_map = True
        self.maybe_reduce = True

    # -- lifecycle notifications (default: ignore) -----------------------

    def on_workflow_submitted(self, wip: "WorkflowInProgress", now: float) -> None:
        """A workflow's configuration arrived at the master."""

    def on_wjob_submitted(self, jip: "JobInProgress", now: float) -> None:
        """A runnable job (wjob or submitter) was registered."""

    def on_job_completed(self, jip: "JobInProgress", now: float) -> None:
        """A job finished all of its tasks."""

    def on_workflow_completed(self, wip: "WorkflowInProgress", now: float) -> None:
        """Every wjob of the workflow finished."""

    def on_task_assigned(self, task: Task, now: float) -> None:
        """A task this scheduler returned was launched (progress hook)."""

    # -- the decision ------------------------------------------------------

    @abc.abstractmethod
    def select_task(self, kind: TaskKind, now: float) -> Optional[Task]:
        """Return the next task to run on a free slot of ``kind``.

        ``kind`` is MAP or REDUCE (a map slot may receive a SUBMIT task).
        Return ``None`` when nothing runnable exists — the JobTracker stops
        asking until the next scheduling event.  Implementations must be
        work-conserving unless they explicitly document otherwise.
        """

    def trace_decision(
        self,
        kind: TaskKind,
        now: float,
        queue_len: int,
        skipped: Optional[List[str]],
        position: Optional[int] = None,
        workflow: Optional[str] = None,
        task: Optional[Task] = None,
        lag: Optional[float] = None,
        ct_advances: int = 0,
    ) -> None:
        """Emit one ``decision`` event (fields: :mod:`repro.trace`).

        The single emitter every scheduler's traced path calls; callers
        guard it with ``self.tracer.enabled``.  ``position`` ``None`` is
        an idle answer, counted under ``idle_decisions``; any other call
        counts under ``decisions`` (even with ``task`` ``None``, as when
        Fair's runnability probe lied).  ``skipped`` is stored as given,
        so a caller that keeps appending must pass a copy.
        """
        tracer = self.tracer
        tracer.incr(self.name, "idle_decisions" if position is None else "decisions")
        tracer.record("decision", now, scheduler=self.name, slot_kind=kind.value,
                      workflow=workflow, task=None if task is None else task.task_id,
                      lag=lag, queue_len=queue_len, position=position, skipped=skipped,
                      ct_advances=ct_advances)

    def select_tasks(
        self, kind: TaskKind, now: float, limit: int, launch: Callable[[Task], None]
    ) -> int:
        """Batched assignment: fill up to ``limit`` slots of ``kind`` in
        one round (``ClusterConfig.batched_assignment``, DESIGN.md §11).

        ``launch`` must be invoked once per selected task, *after* that
        task's decision event is recorded — it launches the task on the
        JobTracker, emitting the matching ``assign`` event, so the trace
        interleaving (decision, assign, decision, assign, ...) is the same
        as the unbatched path's.  Returns the number of tasks launched; a
        return value below ``limit`` is a proven-idle answer (the caller
        lowers the kind's runnability hint) and must be accompanied by the
        same trailing idle ``decision`` event the unbatched path emits.

        This default replays the one-launch-per-call loop and is therefore
        byte-identical to the unbatched path for every scheduler.
        Schedulers whose selection is incremental over a stable queue
        (FIFO's walk, Fair's deficit argmin) override it with a
        single-walk batch that amortises the per-launch queue scans; every
        override must preserve the decision stream exactly
        (tests/integration/test_batched_equivalence.py).
        """
        launched = 0
        while launched < limit:
            task = self.select_task(kind, now)
            if task is None:
                return launched
            launch(task)  # repro: calls[repro.cluster.jobtracker.JobTracker._launch]
            launched += 1
        return launched
