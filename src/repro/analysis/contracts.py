"""Runtime contract checks for the scheduler stack (zero-cost when off).

The lint rules in :mod:`repro.analysis.rules` catch determinism hazards
*statically*; this module asserts the dynamic invariants the paper's
correctness argument leans on, at the moments they can break:

* **DSL cross-link consistency** (§IV-B): both constituent lists hold
  exactly the registered entries, each keyed by the entry's *current*
  ``ct_key``/``priority_key``.  A stale key — e.g. a ``ct`` mutated without
  repositioning — silently corrupts every subsequent head walk.
* **Skip-list level monotonicity**: every level-``l`` node sits on a tower
  (``node.down.key == node.key``), every level's keys are strictly
  ascending and a subset of the level below.  This is what makes the
  O(log n) walk of §IV sound.
* **Plan monotonicity** (Algorithm 1): ``F_i`` entries strictly descending
  in ``ttd`` and strictly ascending in ``cum_req``, ending at
  ``total_tasks`` — equivalently, the client simulation's batches were
  sorted by instant.
* **Prerequisite-respecting dispatch** (§III): no task of a wjob launches
  while the wjob still has unfinished prerequisites.

Checkers follow the :mod:`repro.trace` tracer pattern: schedulers and the
DSL hold :data:`NULL_CONTRACTS` until a real :class:`ContractChecker` is
attached, so the hot path pays one ``enabled`` attribute read per guarded
block.  Every evaluated assertion is counted, and — observability parity
with decision tracing — the counters mirror into an attached tracer under
the ``contracts`` scope, so ``MetricsCollector.aggregate_counters`` reports
how many contract assertions a run evaluated.

Contract checking must never *change* a decision: checks only read state
and raise :class:`ContractViolation` on breakage
(``tests/integration/test_contract_invariance.py`` asserts the launch
sequence is identical with and without contracts enabled).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.trace import NULL_TRACER, DecisionTracer, NullTracer

__all__ = [
    "ContractViolation",
    "NullContractChecker",
    "NULL_CONTRACTS",
    "ContractChecker",
    "ContractMonitor",
]


class ContractViolation(AssertionError):
    """A runtime invariant of the scheduler stack does not hold."""


class NullContractChecker:
    """The disabled checker: every operation is a no-op.

    Held as the default by the DSL and schedulers, exactly like
    :class:`repro.trace.NullTracer`; code guards calls with
    ``checker.enabled`` so the disabled path is one attribute read.
    """

    enabled = False

    def attach_tracer(self, tracer: Union[DecisionTracer, NullTracer]) -> None:
        """Discard (no counters exist to mirror)."""

    def check_dsl(self, dsl: Any) -> None:
        """No-op."""

    def check_skiplist(self, skiplist: Any) -> None:
        """No-op."""

    def check_plan(self, plan: Any) -> None:
        """No-op."""

    def check_batches(self, batches: Sequence[Tuple[float, int]]) -> None:
        """No-op."""

    def check_dispatch(self, wip: Any, task: Any) -> None:
        """No-op."""

    def counter_table(self) -> Dict[str, Dict[str, Union[int, float]]]:
        return {}


NULL_CONTRACTS = NullContractChecker()


class ContractChecker:
    """Evaluates the runtime contracts and counts every assertion.

    Args:
        tracer: optional decision tracer to mirror counters into (under
            scope :data:`COUNTER_SCOPE`), giving contract observability in
            the same counter table as scheduling decisions.

    The checker exposes ``counter_table()`` in the shape
    ``MetricsCollector.aggregate_counters`` duck-types, so a run can report
    its assertion counts even without a tracer.
    """

    enabled = True

    #: Scope name used in counter tables and mirrored tracer counters.
    COUNTER_SCOPE = "contracts"

    def __init__(self, tracer: Union[DecisionTracer, NullTracer] = NULL_TRACER) -> None:
        self.counters: "Counter[str]" = Counter()
        self.tracer = tracer

    def attach_tracer(self, tracer: Union[DecisionTracer, NullTracer]) -> None:
        """Start mirroring counter increments into ``tracer``."""
        self.tracer = tracer

    # -- accounting ---------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        if self.tracer.enabled:
            self.tracer.incr(self.COUNTER_SCOPE, name, amount)

    def _require(self, condition: bool, message: str) -> None:
        """One contract assertion: counted, raising on failure."""
        self._count("assertions")
        if not condition:
            self._count("violations")
            raise ContractViolation(message)

    def counter_table(self) -> Dict[str, Dict[str, Union[int, float]]]:
        """Counters in ``{scope: {name: value}}`` shape (collector-ready)."""
        return {self.COUNTER_SCOPE: {name: value for name, value in sorted(self.counters.items())}}

    # -- structure contracts -------------------------------------------------

    def check_dsl(self, dsl: Any) -> None:
        """Cross-link consistency of a :class:`~repro.structures.dsl.DoubleSkipList`.

        Both lists must contain exactly the registered entries; every key
        under which an entry is filed must equal the entry's *current*
        derived key (the cross-link: one shared ``DoubleEntry`` per item).
        """
        self._count("dsl_checks")
        entries = dsl._entries
        ct_list, priority_list = dsl._ct_list, dsl._priority_list
        self._require(
            len(ct_list) == len(entries),
            f"ct list holds {len(ct_list)} items but {len(entries)} entries registered",
        )
        self._require(
            len(priority_list) == len(entries),
            f"priority list holds {len(priority_list)} items but {len(entries)} entries registered",
        )
        for key, entry in ct_list.items():
            self._require(
                key == entry.ct_key,
                f"ct list files {entry.item_id!r} under {key!r} but its ct_key is {entry.ct_key!r}",
            )
            self._require(
                entries.get(entry.item_id) is entry,
                f"ct list entry {entry.item_id!r} is not the registered DoubleEntry",
            )
        for key, entry in priority_list.items():
            self._require(
                key == entry.priority_key,
                f"priority list files {entry.item_id!r} under {key!r} "
                f"but its priority_key is {entry.priority_key!r}",
            )
            self._require(
                entries.get(entry.item_id) is entry,
                f"priority list entry {entry.item_id!r} is not the registered DoubleEntry",
            )
        self.check_skiplist(ct_list)
        self.check_skiplist(priority_list)

    def check_skiplist(self, skiplist: Any) -> None:
        """Level monotonicity of a deterministic skip list.

        Checks: per-level strictly ascending keys; every upper-level node
        tops a tower (``down`` points to a same-keyed node); every level's
        key set is contained in the level below.  Non-skip-list backends
        (the AVL tree) fall back to their own ``check_invariants``,
        re-raised as :class:`ContractViolation`.
        """
        heads = getattr(skiplist, "_heads", None)
        tail = getattr(skiplist, "_tail", None)
        if heads is None or tail is None:
            check = getattr(skiplist, "check_invariants", None)
            if check is not None:
                self._count("assertions")
                try:
                    check()
                except AssertionError as exc:
                    self._count("violations")
                    raise ContractViolation(f"ordered-map invariants broken: {exc}") from exc
            return
        self._count("skiplist_checks")
        below: Optional[List[Any]] = None
        for level, head in enumerate(heads):
            keys: List[Any] = []
            node = head.right
            while node is not tail:
                if level > 0:
                    down = node.down
                    self._require(
                        down is not None and down.key == node.key,
                        f"tower broken at level {level}: node {node.key!r} "
                        f"sits on {getattr(down, 'key', None)!r}",
                    )
                keys.append(node.key)
                node = node.right
            for a, b in zip(keys, keys[1:]):
                self._require(
                    a < b, f"level {level} keys not strictly ascending: {a!r} then {b!r}"
                )
            if level > 0:
                below_set = set(below)  # membership only; never iterated
                for key in keys:
                    self._require(
                        key in below_set,
                        f"level {level} key {key!r} missing from level {level - 1}",
                    )
            below = keys

    # -- plan contracts (Algorithm 1) ----------------------------------------

    def check_plan(self, plan: Any) -> None:
        """Monotonicity of a :class:`~repro.core.progress.ProgressPlan`.

        ``F_i`` must be strictly descending in ``ttd`` and strictly
        ascending in ``cum_req``, end at ``total_tasks``, and carry a
        duplicate-free job order (duplicates would corrupt the scheduler's
        rank map).
        """
        self._count("plan_checks")
        entries = plan.entries
        for a, b in zip(entries, entries[1:]):
            self._require(
                a.ttd > b.ttd,
                f"plan ttd not strictly descending: {a.ttd} then {b.ttd}",
            )
            self._require(
                a.cum_req < b.cum_req,
                f"plan cum_req not strictly ascending: {a.cum_req} then {b.cum_req}",
            )
        if entries:
            self._require(
                entries[-1].cum_req == plan.total_tasks,
                f"plan requires {entries[-1].cum_req} tasks but workflow has {plan.total_tasks}",
            )
            self._require(
                entries[0].cum_req > 0,
                f"plan starts at a non-positive requirement {entries[0].cum_req}",
            )
        self._require(
            len(set(plan.job_order)) == len(plan.job_order),
            "plan job_order contains duplicate job names",
        )

    def check_batches(self, batches: Sequence[Tuple[float, int]]) -> None:
        """Scheduling batches must be sorted by instant with positive counts."""
        self._count("batch_checks")
        previous: Optional[float] = None
        for time, count in batches:
            self._require(count > 0, f"batch at t={time} has non-positive count {count}")
            self._require(
                previous is None or time >= previous,
                f"batches not sorted by instant: t={previous} then t={time}",
            )
            previous = time

    # -- dispatch contracts (§III prerequisite order) -------------------------

    def check_dispatch(self, wip: Any, task: Any) -> None:
        """A launching task's wjob must have no unfinished prerequisites.

        SUBMIT tasks carry the wjob they are about to materialise in
        ``payload``; MAP/REDUCE tasks belong to an already-submitted wjob.
        Either way the wjob's pending-prerequisite set must be empty at
        launch, or dispatch order violates the workflow DAG.
        """
        self._count("dispatch_checks")
        name = task.payload if task.kind.value == "submit" else task.job.name
        pending = wip.pending_prereqs.get(name)
        if pending is None:
            return  # not a wjob of this workflow (e.g. the submitter job itself)
        self._require(
            not pending,
            f"task {task.task_id} of wjob {name!r} launched with unfinished "
            f"prerequisites {sorted(pending)}",
        )


class ContractMonitor:
    """JobTracker listener that applies contract checks at lifecycle points.

    * ``on_workflow_submitted`` — validate the shipped plan's monotonicity;
    * ``on_task_launch`` — validate prerequisite-respecting dispatch and,
      when the scheduler exposes ``check_invariants`` (the WOHA queue), its
      structural invariants after the decision that produced the launch.

    Registered by :class:`~repro.cluster.simulation.ClusterSimulation` when
    run with ``contracts=``; like the tracer it is purely observational.
    """

    def __init__(self, checker: ContractChecker) -> None:
        self.checker = checker
        self._jobtracker: Any = None

    def bind(self, jobtracker: Any) -> None:
        """Called once with the JobTracker whose events will be checked."""
        self._jobtracker = jobtracker

    def on_workflow_submitted(self, wip: Any, now: float) -> None:
        plan = wip.plan
        if plan is not None and hasattr(plan, "entries"):
            self.checker.check_plan(plan)

    def on_task_launch(self, task: Any, now: float) -> None:
        wf_name = task.workflow_name
        if wf_name is not None and self._jobtracker is not None:
            wip = self._jobtracker.workflows.get(wf_name)
            if wip is not None:
                self.checker.check_dispatch(wip, task)
