"""The WOHA Workflow Scheduler: Algorithm 2 on the Double Skip List.

Runtime behaviour (paper §IV-B):

1. On every slot free-up the scheduler first walks the head of the **ct
   list**: workflows whose next progress-requirement change time has passed
   get their index ``W_h.i`` advanced, their next change time recomputed,
   and their priority updated to the current lag
   ``F_h[W_h.i - 1].req - rho_h`` — both list positions move.
2. It then serves the head of the **priority list**: the workflow with the
   largest lag that has a runnable task of the requested kind.  Within the
   workflow, the plan's job order picks the job (submitter tasks go first —
   they unlock everything else and cost one short map slot).
3. After an assignment, ``rho_h`` grows by one so the workflow's priority
   drops by one and it is repositioned — a head deletion plus an ordered
   insertion.

Workflows without a plan or deadline sort behind every planned workflow
(they have no progress requirement to fall behind of) and are served FIFO
among themselves.  Workflows whose plan is *infeasible* (the cap search
could not meet the deadline even with the whole cluster) are demoted the
same way: their plan's requirements are unattainable by construction, so
honouring its aggressive lag would let a hopeless workflow starve feasible
ones.  The plan's job order still guides intra-workflow picks.

With a :mod:`repro.trace` tracer attached, every ``select_task`` emits a
``decision`` event (chosen workflow, its lag, queue position, skipped
workflows, ct advances); tracing is strictly observational.

:class:`NaiveWohaScheduler` is the paper's strawman for Fig 13a: same
decisions, but every call recomputes every workflow's lag and re-sorts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.cluster.job import JobInProgress, SubmitterJob
from repro.cluster.tasks import Task, TaskKind
from repro.core.progress import ProgressPlan
from repro.schedulers.base import WorkflowScheduler
from repro.structures.avl import AvlTree
from repro.structures.base import OrderedMap
from repro.structures.dsl import DoubleSkipList
from repro.structures.naive import SortedListMap
from repro.structures.skiplist import DeterministicSkipList

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.jobtracker import WorkflowInProgress

__all__ = ["WohaScheduler", "NaiveWohaScheduler", "QUEUE_BACKENDS"]

QUEUE_BACKENDS: Dict[str, Callable[[], OrderedMap]] = {
    "dsl": DeterministicSkipList,
    "bst": AvlTree,
    "list": SortedListMap,
}


class _WorkflowRecord:
    """Scheduler-private state for one workflow (the ``W_h`` fields of
    Algorithm 2)."""

    __slots__ = ("wip", "plan", "rank", "index", "rho_base", "deadline", "planned")

    def __init__(self, wip: "WorkflowInProgress", plan: Optional[ProgressPlan]):
        self.wip = wip
        self.plan = plan
        self.rank: Dict[str, int] = (
            {name: i for i, name in enumerate(plan.job_order)} if plan is not None else {}
        )
        self.index = 0  # W_h.i: next progress-requirement change entry
        # Progress already accounted when the current plan was installed.
        # 0 for submission-time plans; replanning (see
        # repro.core.replanning) rebases so the fresh plan's requirements
        # compare against progress made after the replan.
        self.rho_base = 0
        # Deadlines are immutable after submission; cache the property
        # chain's result.  ``planned`` is the has_plan predicate evaluated
        # once per plan install instead of once per priority read — the
        # per-decision hot path only pays a slot load.
        self.deadline = wip.deadline
        self.planned = (
            plan is not None
            and self.deadline is not None
            and len(plan) > 0
            and plan.feasible
        )

    @property
    def has_plan(self) -> bool:
        # Infeasible plans are demoted to best-effort: their requirements
        # cannot be met by construction, so following them would starve
        # feasible workflows (the flag must therefore survive plan
        # serialization — see ProgressPlan.to_bytes).  Maintained at
        # construction and plan install; see ``planned``.
        return self.planned

    @property
    def rho(self) -> int:
        """Progress against the *current* plan."""
        return self.wip.scheduled_tasks - self.rho_base

    def next_change_time(self) -> float:
        if not self.planned:
            return float("inf")
        return self.plan.change_time(self.deadline, self.index)

    def current_priority(self) -> float:
        """The lag ``F_h[W_h.i - 1].req - rho_h``.

        Unplanned workflows get -inf-like priority so planned workflows
        always outrank them; their FIFO tie-break is the item id.
        """
        if not self.planned:
            return float("-inf")
        return self.plan.requirement_before(self.index) - (
            self.wip.scheduled_tasks - self.rho_base
        )

    def install_plan(self, plan: ProgressPlan, now: float) -> None:
        """Swap in a fresh plan, rebasing progress accounting."""
        self.plan = plan
        self.rank = {name: i for i, name in enumerate(plan.job_order)}
        self.rho_base = self.wip.scheduled_tasks
        self.planned = self.deadline is not None and len(plan) > 0 and plan.feasible
        self.index = plan.first_index_after(self.deadline, now) if self.planned else 0


# repro: budget O(n)
def _pick_task_in_workflow(record: _WorkflowRecord, kind: TaskKind) -> Optional[Task]:
    """Pick the highest-priority runnable job inside the workflow.

    Submitter tasks go first on map slots; then the plan's job order (jobs
    absent from the plan sort last, FIFO).  The walk covers only the
    workflow's *active* (submitted, unfinished) jobs — completed jobs can
    never be picked, and the active dict preserves submission order, so the
    FIFO tie-break among unplanned jobs is unchanged."""
    wip = record.wip
    uses_map = kind is not TaskKind.REDUCE
    if uses_map:
        submitter = wip.submitter
        if submitter is not None and submitter.has_pending_maps:
            task = submitter.obtain_map()
            if task is not None:
                return task
    best: Optional[JobInProgress] = None
    best_rank = None
    rank_of = record.rank
    default_rank = len(rank_of)
    # Bounded by the job count of ONE workflow (paper's n per-workflow
    # topology size), not by the queue length n_w the budgets govern.
    if uses_map:
        for name, jip in wip._active_jobs.items():
            if not jip.has_pending_maps:
                continue
            rank = rank_of.get(name, default_rank)
            if best_rank is None or rank < best_rank:
                best, best_rank = jip, rank
        if best is None:
            return None
        return best.obtain_map()
    for name, jip in wip._active_jobs.items():
        if not jip.map_phase_done or not jip._pending_reduces:
            continue
        rank = rank_of.get(name, default_rank)
        if best_rank is None or rank < best_rank:
            best, best_rank = jip, rank
    if best is None:
        return None
    return best.obtain_reduce()


class WohaScheduler(WorkflowScheduler):
    """Progress-based workflow scheduling over a pluggable ordered queue.

    Args:
        queue_backend: ``"dsl"`` (deterministic skip lists — the paper's
            choice), ``"bst"`` (AVL trees) or ``"list"`` (sorted lists).
            All give identical scheduling decisions; they differ only in
            the cost profile measured by the Fig 13a bench.
    """

    name = "WOHA"

    def __init__(self, queue_backend: str = "dsl") -> None:
        super().__init__()
        try:
            factory = QUEUE_BACKENDS[queue_backend]
        except KeyError:
            raise ValueError(
                f"unknown queue backend {queue_backend!r}; pick from {sorted(QUEUE_BACKENDS)}"
            ) from None
        self.queue_backend = queue_backend
        self._queue = DoubleSkipList(map_factory=factory)
        self._records: Dict[str, _WorkflowRecord] = {}
        self.assign_calls = 0

    def attach_contracts(self, checker) -> None:
        """Check the DSL's cross-link consistency after every queue mutation."""
        super().attach_contracts(checker)
        self._queue.attach_contracts(checker)

    # -- lifecycle -----------------------------------------------------------

    def on_workflow_submitted(self, wip: "WorkflowInProgress", now: float) -> None:
        record = _WorkflowRecord(wip, wip.plan if isinstance(wip.plan, ProgressPlan) else None)
        if record.has_plan:
            # Skip entries that already fired (a workflow submitted after
            # deadline - makespan starts behind its plan).
            record.index = record.plan.first_index_after(wip.deadline, now)
        self._records[wip.name] = record
        self._queue.insert(
            item_id=wip.name,
            ct=record.next_change_time(),
            priority=record.current_priority(),
            payload=record,
        )

    def on_workflow_completed(self, wip: "WorkflowInProgress", now: float) -> None:
        if wip.name in self._queue:
            self._queue.remove(wip.name)
        self._records.pop(wip.name, None)

    # -- Algorithm 2 -----------------------------------------------------------

    # repro: budget O(log n)
    def _advance_ct_heads(self, now: float) -> int:
        """Lines 4-19: update every workflow whose requirement changed.

        Returns the number of head advances performed (traced as
        ``ct_advance`` events).
        """
        advanced = 0
        queue = self._queue
        # One peek per iteration plus one trailing peek; ``_ct`` is the
        # entry's slot behind the ``ct`` property (setter exists only to
        # keep the cached key coherent — reads don't need the dispatch).
        head = queue.head_by_ct()
        while head is not None and head._ct <= now:
            record: _WorkflowRecord = head.payload
            record.index = record.plan.first_index_after(record.deadline, now)
            queue.update_head_ct(record.next_change_time(), record.current_priority())
            advanced += 1
            if self.tracer.enabled:
                self.tracer.incr(self.name, "ct_advances")
                self.tracer.record(
                    "ct_advance",
                    now,
                    scheduler=self.name,
                    workflow=record.wip.name,
                    index=record.index,
                    lag=record.current_priority(),
                )
            head = queue.head_by_ct()
        return advanced

    # repro: budget O(log n)
    def select_task(self, kind: TaskKind, now: float) -> Optional[Task]:
        self.assign_calls += 1
        advanced = self._advance_ct_heads(now)
        tracing = self.tracer.enabled
        queue = self._queue
        # Serve the largest lag first, probing the head without building the
        # generator: the common case is that the head has a runnable task.
        # The per-workflow scan is bounded by that workflow's job count.
        head = queue.head_by_priority()
        if head is None:
            if tracing:
                self._record_decision(kind, now, None, None, [], advanced)
            return None
        record: _WorkflowRecord = head.payload
        task = _pick_task_in_workflow(record, kind)  # repro: allow[DT203]
        if task is not None:
            if tracing:
                self._record_decision(kind, now, record, task, [], advanced)
            return task
        # Skip workflows with nothing runnable of this kind (work
        # conservation).  This walk past a prefix of unrunnable workflows
        # is the §IV-B work-conservation exception to the O(log n_w) claim.
        # Every workflow before the chosen one is skipped, so the traced
        # ``skipped`` list doubles as the queue position.
        skipped = [record.wip.name] if tracing else None
        first = True
        for entry in queue.iter_by_priority():  # repro: allow[DT203]
            if first:  # the head was already probed (and proved empty)
                first = False
                continue
            record = entry.payload
            task = _pick_task_in_workflow(record, kind)  # repro: allow[DT203]
            if task is not None:
                if tracing:
                    self._record_decision(kind, now, record, task, skipped, advanced)
                return task
            if tracing:
                skipped.append(record.wip.name)
        if tracing:
            self._record_decision(kind, now, None, None, skipped, advanced)
        return None

    def _record_decision(
        self,
        kind: TaskKind,
        now: float,
        record: Optional[_WorkflowRecord],
        task: Optional[Task],
        skipped: List[str],
        advanced: int,
    ) -> None:
        """Emit one traced ``decision`` event; ``record`` is ``None`` for an
        idle answer."""
        tracer = self.tracer
        if record is None:
            tracer.incr(self.name, "idle_decisions")
            workflow = task_id = lag = position = None
        else:
            tracer.incr(self.name, "decisions")
            workflow = record.wip.name
            task_id = task.task_id
            lag = record.current_priority() if record.has_plan else None
            position = len(skipped)
        tracer.record(
            "decision",
            now,
            scheduler=self.name,
            slot_kind=kind.value,
            workflow=workflow,
            task=task_id,
            lag=lag,
            queue_len=len(self._queue),
            position=position,
            skipped=skipped,
            ct_advances=advanced,
        )

    def on_task_assigned(self, task: Task, now: float) -> None:
        """Lines 20-23: the served workflow's rho grew, so its lag shrank."""
        if task.kind is TaskKind.SUBMIT:
            return  # submitter tasks are not part of the plan's population
        wf_name = task.workflow_name
        if wf_name is None or wf_name not in self._queue:
            return
        record = self._records[wf_name]
        self._queue.update_priority(wf_name, record.current_priority())

    # -- introspection for tests/benches ---------------------------------------

    def queue_length(self) -> int:
        """Workflows currently queued (both DSL lists hold this many)."""
        return len(self._queue)

    def check_invariants(self) -> None:
        """Assert the queue's structural invariants (test hook)."""
        self._queue.check_invariants()


class NaiveWohaScheduler(WorkflowScheduler):
    """The strawman of Fig 13a: recompute every lag and re-sort per call.

    Produces the same assignments as :class:`WohaScheduler` (ties included)
    but costs O(n_w log n_w) on *every* AssignTask call instead of only on
    requirement changes.
    """

    name = "WOHA-naive"

    def __init__(self) -> None:
        super().__init__()
        self._records: Dict[str, _WorkflowRecord] = {}
        self.assign_calls = 0

    def on_workflow_submitted(self, wip: "WorkflowInProgress", now: float) -> None:
        self._records[wip.name] = _WorkflowRecord(
            wip, wip.plan if isinstance(wip.plan, ProgressPlan) else None
        )

    def on_workflow_completed(self, wip: "WorkflowInProgress", now: float) -> None:
        self._records.pop(wip.name, None)

    def _lag(self, record: _WorkflowRecord, now: float) -> float:
        if not record.has_plan:
            return float("-inf")
        ttd = record.wip.deadline - now
        return record.plan.requirement_at(ttd) - record.rho

    def select_task(self, kind: TaskKind, now: float) -> Optional[Task]:
        self.assign_calls += 1
        tracing = self.tracer.enabled
        skipped: Optional[List[str]] = [] if tracing else None
        ordered = sorted(
            self._records.values(),
            key=lambda r: (-self._lag(r, now), r.wip.name),
        )
        for position, record in enumerate(ordered):
            task = _pick_task_in_workflow(record, kind)
            if task is not None:
                if tracing:
                    lag = self._lag(record, now)
                    self.tracer.incr(self.name, "decisions")
                    self.tracer.record(
                        "decision",
                        now,
                        scheduler=self.name,
                        slot_kind=kind.value,
                        workflow=record.wip.name,
                        task=task.task_id,
                        lag=lag if lag != float("-inf") else None,
                        queue_len=len(ordered),
                        position=position,
                        skipped=skipped,
                        ct_advances=0,
                    )
                return task
            if tracing:
                skipped.append(record.wip.name)
        if tracing:
            self.tracer.incr(self.name, "idle_decisions")
            self.tracer.record(
                "decision",
                now,
                scheduler=self.name,
                slot_kind=kind.value,
                workflow=None,
                task=None,
                lag=None,
                queue_len=len(ordered),
                position=None,
                skipped=skipped,
                ct_advances=0,
            )
        return None
