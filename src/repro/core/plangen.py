"""Algorithm 1: client-side generation of progress requirements.

``generate_requirements`` simulates the workflow's execution on ``cap``
pooled slots, honouring the given intra-workflow job priority order, and
records how many tasks a deadline-meeting execution has scheduled at every
instant.  The recorded batches, re-expressed in time-to-deadline, are the
progress requirement list ``F_i``.

Faithfulness notes (two places where the printed pseudo-code is abbreviated
and we implement the evident intent):

* The paper's listing never emits FREE events for completed task batches —
  taken literally, slots would leak and any job with more tasks than slots
  would deadlock.  We emit ``FREE(t + duration, batch)`` per batch, which is
  the only reading under which the algorithm's own Fig 2 example works out.
* The listing assigns slots to a single job per event.  We keep assigning
  while slots and active jobs remain at the same instant (work-conserving),
  matching both the Workflow Scheduler's runtime behaviour and Fig 2.

As in the paper, map and reduce slots are pooled into the single cap ``n``;
``generate_requirements_split`` is our split-pool ablation (DESIGN.md §6).

Performance: planning throughput *is* WOHA's scalability story — all the
expensive analysis runs client-side (§III-B), so the kernel below is the
hot loop of every cap-search probe.  Runnable jobs live in rank-keyed
binary heaps (one pooled heap, or separate map-/reduce-phase heaps in split
mode) so each assignment is an O(log |A|) pop instead of an O(|A|)
candidate rescan, and ``collect_batches=False`` lets makespan-only probes
skip materialising batch lists entirely.  Job ranks are unique (positions
in ``job_order``), so heap selection reproduces the previous
min-over-candidates scan decision-for-decision: same batches, same event
times, same makespan, bit-for-bit.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.progress import ProgressEntry, ProgressPlan
from repro.workflow.dag import critical_path, longest_path_weights
from repro.workflow.model import WJob, Workflow

__all__ = ["generate_requirements", "generate_requirements_split", "simulate_makespan"]

# Event codes; ``seq`` is unique, so tuple comparison never reaches the
# code or payload.  Plain FREE events are (time, seq, code, count);
# FREE+ADD events are (time, seq, code, count, rank).  A phase's last
# batch frees its slots *and* re-activates the job at the same instant
# with consecutive sequence numbers — nothing can drain between the two —
# so the pair is fused into one event.
_FREE_MAP = 0
_FREE_REDUCE = 1
_FREE_MAP_ADD = 2
_FREE_REDUCE_ADD = 3


class _SimProblem:
    """The per-(workflow, job_order) setup of the Algorithm 1 simulation.

    Building the rank index, the per-job counter arrays and the
    rank-resolved dependency lists costs as much as simulating a small
    workflow — and the cap search runs ~log(n) simulations over the *same*
    workflow and order.  This class does that setup once; :meth:`run`
    copies the mutable counters and executes the event loop for one cap.

    The cap search's analytic bounds read three more structure-only inputs
    (:attr:`total_work`, :attr:`longest_path_weights`,
    :attr:`critical_chain`).  The first two are memoized on the workflow
    itself (:meth:`~repro.workflow.model.Workflow.derived`), shared with
    LPF and with every other problem built over the same object; the chain
    is resolved to jobs on first use, at most once per problem.
    """

    __slots__ = (
        "workflow",
        "order",
        "size",
        "maps0",
        "reduces0",
        "map_dur",
        "reduce_dur",
        "pending0",
        "name_of",
        "dependents",
        "root_ranks",
        "_chain",
    )

    def __init__(self, workflow: Workflow, job_order: Sequence[str]) -> None:
        rank: Dict[str, int] = {name: i for i, name in enumerate(job_order)}
        missing = [name for name in workflow.job_names() if name not in rank]
        if missing:
            raise ValueError(f"job_order missing jobs: {sorted(missing)}")
        self.workflow = workflow
        self.order = tuple(job_order)
        size = len(rank)
        self.size = size
        # Per-job state, indexed by rank (= priority: lower runs first).
        self.maps0 = [0] * size
        self.reduces0 = [0] * size
        self.map_dur = [0.0] * size
        self.reduce_dur = [0.0] * size
        self.pending0 = [0] * size  # unfinished prerequisites
        self.name_of: List[Optional[str]] = [None] * size
        self.dependents: List[Tuple[int, ...]] = [()] * size
        for wjob in workflow.jobs:
            r = rank[wjob.name]
            self.maps0[r] = wjob.num_maps
            self.reduces0[r] = wjob.num_reduces
            self.map_dur[r] = wjob.map_duration
            self.reduce_dur[r] = wjob.reduce_duration
            self.pending0[r] = len(wjob.prerequisites)
            self.name_of[r] = wjob.name
            # sorted: dependents() is a frozenset, so bare iteration here
            # would bake hash order into the tuple.  Rank heaps pop by
            # value, so the push order cannot change any decision — but the
            # stored tuple must still be process-independent for the plan
            # cache and the byte-equivalence oracle.
            self.dependents[r] = tuple(rank[d] for d in sorted(workflow.dependents(wjob.name)))
        self.root_ranks = tuple(rank[root] for root in workflow.roots())
        self._chain: Optional[Tuple[WJob, ...]] = None

    @property
    def total_work(self) -> float:
        """The workflow's total slot-seconds (``Workflow.total_work``)."""
        return self.workflow.total_work

    @property
    def longest_path_weights(self) -> Dict[str, float]:
        """:func:`~repro.workflow.dag.longest_path_weights` of the workflow."""
        return longest_path_weights(self.workflow)

    @property
    def critical_chain(self) -> Tuple[WJob, ...]:
        """The jobs along :func:`~repro.workflow.dag.critical_path`."""
        if self._chain is None:
            workflow = self.workflow
            self._chain = tuple(workflow.job(name) for name in critical_path(workflow))
        return self._chain

    def run(
        self,
        cap: int,
        pooled: bool,
        reduce_cap: int = 0,
        collect_batches: bool = True,
    ) -> Tuple[Optional[List[Tuple[float, int]]], float]:
        """Simulate at one cap; see :func:`_simulate` for the contract."""
        if cap < 1:
            raise ValueError("resource cap must be >= 1")
        maps_left = self.maps0.copy()
        reduces_left = self.reduces0.copy()
        map_dur = self.map_dur
        reduce_dur = self.reduce_dur
        pending = self.pending0.copy()
        dependents = self.dependents

        # Runnable heaps keyed by rank.  Pooled mode keeps one heap (both
        # phases draw from the same slot pool); split mode keeps map-phase
        # and reduce-phase eligibility apart so the min-rank pick only
        # considers jobs whose pool actually has a free slot.
        map_heap: List[int] = []
        reduce_heap: List[int] = []
        for r in self.root_ranks:
            if pooled or maps_left[r] > 0:
                map_heap.append(r)
            else:
                reduce_heap.append(r)
        heapify(map_heap)
        heapify(reduce_heap)

        events: List[Tuple[float, int, int, int]] = []
        seq = 0
        free_maps = cap
        free_reduces = reduce_cap  # unused when pooled
        batches: Optional[List[Tuple[float, int]]] = [] if collect_batches else None
        makespan = 0.0
        t = 0.0
        push = heappush
        pop = heappop

        while True:
            # Work-conserving assignment at instant ``t``.  All batches of
            # one instant are recorded as a single (t, count) entry: time
            # strictly increases between rounds (durations are positive),
            # so this is exactly the adjacent same-time merge
            # ``_batches_to_plan`` would perform anyway.
            made = 0
            if pooled:
                while free_maps > 0 and map_heap:
                    r = pop(map_heap)
                    m = maps_left[r]
                    if m > 0:
                        batch = m if m <= free_maps else free_maps
                        free_maps -= batch
                        maps_left[r] = m - batch
                        finish = t + map_dur[r]
                    else:
                        m = reduces_left[r]
                        batch = m if m <= free_maps else free_maps
                        free_maps -= batch
                        reduces_left[r] = m - batch
                        finish = t + reduce_dur[r]
                    made += batch
                    if m == batch:
                        # Phase exhausted: free the slots and re-activate
                        # (reduce phase or completion) in one fused event.
                        push(events, (finish, seq, _FREE_MAP_ADD, batch, r))
                    else:
                        push(events, (finish, seq, _FREE_MAP, batch))
                        push(map_heap, r)  # partial batch: pool is now dry
                    seq += 1
            else:
                while True:
                    take_map = free_maps > 0 and bool(map_heap)
                    take_reduce = free_reduces > 0 and bool(reduce_heap)
                    if take_map and take_reduce:
                        if map_heap[0] < reduce_heap[0]:
                            take_reduce = False
                        else:
                            take_map = False
                    if take_map:
                        r = pop(map_heap)
                        m = maps_left[r]
                        batch = m if m <= free_maps else free_maps
                        free_maps -= batch
                        maps_left[r] = m - batch
                        finish = t + map_dur[r]
                        made += batch
                        if m == batch:
                            push(events, (finish, seq, _FREE_MAP_ADD, batch, r))
                        else:
                            push(events, (finish, seq, _FREE_MAP, batch))
                            push(map_heap, r)
                        seq += 1
                    elif take_reduce:
                        r = pop(reduce_heap)
                        m = reduces_left[r]
                        batch = m if m <= free_reduces else free_reduces
                        free_reduces -= batch
                        reduces_left[r] = m - batch
                        finish = t + reduce_dur[r]
                        made += batch
                        if m == batch:
                            push(events, (finish, seq, _FREE_REDUCE_ADD, batch, r))
                        else:
                            push(events, (finish, seq, _FREE_REDUCE, batch))
                            push(reduce_heap, r)
                        seq += 1
                    else:
                        break
            if made and batches is not None:
                batches.append((t, made))
            if not events:
                break
            t = events[0][0]
            # Drain every event at this instant before assigning.
            while events:
                head = events[0]
                if head[0] != t:
                    break
                code = head[2]
                pop(events)
                if code == _FREE_MAP:
                    free_maps += head[3]
                    continue
                if code == _FREE_REDUCE:
                    free_reduces += head[3]
                    continue
                if code == _FREE_MAP_ADD:
                    free_maps += head[3]
                else:
                    free_reduces += head[3]
                value = head[4]
                if maps_left[value] == 0 and reduces_left[value] == 0:
                    # Last phase finished: record completion, unlock deps.
                    if t > makespan:
                        makespan = t
                    for dep in dependents[value]:
                        pending[dep] -= 1
                        if pending[dep] == 0:
                            if pooled or maps_left[dep] > 0:
                                push(map_heap, dep)
                            else:
                                push(reduce_heap, dep)
                else:
                    # Map phase done; reduce phase opens.
                    if pooled or maps_left[value] > 0:
                        push(map_heap, value)
                    else:
                        push(reduce_heap, value)

        if map_heap or reduce_heap:
            raise RuntimeError(
                "plan simulation stalled with active jobs and no events — "
                "this indicates a slot-accounting bug"
            )
        name_of = self.name_of
        unfinished = [
            name_of[r]
            for r in range(self.size)
            if name_of[r] is not None and (maps_left[r] or reduces_left[r])
        ]
        if unfinished:
            raise RuntimeError(f"plan simulation left jobs unscheduled: {unfinished}")
        return batches, makespan


def _simulate(
    workflow: Workflow,
    cap: int,
    job_order: Sequence[str],
    pooled: bool,
    reduce_cap: int = 0,
    collect_batches: bool = True,
) -> Tuple[Optional[List[Tuple[float, int]]], float]:
    """Run the Algorithm 1 simulation (one-shot entry point).

    Returns ``(batches, makespan)`` where each batch is ``(time, count)``;
    ``batches`` is ``None`` when ``collect_batches`` is False (the
    makespan-only fast path used by external makespan queries).  With
    ``pooled`` False, ``cap`` bounds map slots and ``reduce_cap`` reduce
    slots (the split-pool ablation).  Callers probing several caps over one
    workflow should build a :class:`_SimProblem` and call :meth:`run`.
    """
    if cap < 1:
        raise ValueError("resource cap must be >= 1")
    return _SimProblem(workflow, job_order).run(
        cap, pooled, reduce_cap=reduce_cap, collect_batches=collect_batches
    )


def _batches_to_plan(
    batches: List[Tuple[float, int]],
    makespan: float,
    job_order: Sequence[str],
    cap: int,
    total_tasks: int,
    feasible: bool,
) -> ProgressPlan:
    """Merge same-instant batches, accumulate, convert times to ttd."""
    merged: List[Tuple[float, int]] = []
    for time, count in batches:
        if count <= 0:
            continue
        if merged and merged[-1][0] == time:
            merged[-1] = (time, merged[-1][1] + count)
        else:
            merged.append((time, count))
    entries: List[ProgressEntry] = []
    cumulative = 0
    for time, count in merged:
        cumulative += count
        ttd = makespan - time
        if entries and entries[-1].ttd <= ttd:
            # Distinct batch times can collapse to one ttd in floating
            # point; keep a single entry with the stronger requirement.
            entries[-1] = ProgressEntry(ttd=entries[-1].ttd, cum_req=cumulative)
        else:
            entries.append(ProgressEntry(ttd=ttd, cum_req=cumulative))
    return ProgressPlan(
        entries=tuple(entries),
        job_order=tuple(job_order),
        resource_cap=cap,
        makespan=makespan,
        total_tasks=total_tasks,
        feasible=feasible,
    )


def generate_requirements(
    workflow: Workflow,
    cap: int,
    job_order: Optional[Sequence[str]] = None,
    feasible: bool = True,
    problem: Optional[_SimProblem] = None,
) -> ProgressPlan:
    """Algorithm 1: simulate ``workflow`` on ``cap`` pooled slots.

    Args:
        workflow: the workflow configuration ``W_i``.
        cap: the resource consumption cap ``n``.
        job_order: intra-workflow priority order (best first); defaults to
            the workflow's topological order.
        feasible: recorded on the plan (set by the cap search).
        problem: pre-built :class:`_SimProblem` for ``(workflow, order)``;
            callers planning many structurally identical workflows (the
            serve-tier batch fusion) pass one shared setup instead of
            paying the rank-index build per plan.

    Returns:
        The progress requirement plan ``F_i``.
    """
    order = tuple(job_order) if job_order is not None else workflow.topological_order()
    if problem is not None:
        if problem.order != order:
            raise ValueError("shared _SimProblem was built for a different job order")
        batches, makespan = problem.run(cap, pooled=True)
    else:
        batches, makespan = _simulate(workflow, cap, order, pooled=True)
    return _batches_to_plan(batches, makespan, order, cap, workflow.total_tasks, feasible)


def generate_requirements_split(
    workflow: Workflow,
    map_cap: int,
    reduce_cap: int,
    job_order: Optional[Sequence[str]] = None,
    feasible: bool = True,
    problem: Optional[_SimProblem] = None,
) -> ProgressPlan:
    """Split-pool ablation: separate map and reduce slot caps.

    The paper pools both slot kinds into one ``n``; this variant models
    them separately, which matches the real cluster more closely.  Compared
    in ``benchmarks/bench_ablation_split_pool.py``.  ``problem`` shares a
    pre-built setup exactly as in :func:`generate_requirements`.
    """
    if reduce_cap < 1:
        raise ValueError("reduce cap must be >= 1")
    order = tuple(job_order) if job_order is not None else workflow.topological_order()
    if problem is not None:
        if problem.order != order:
            raise ValueError("shared _SimProblem was built for a different job order")
        batches, makespan = problem.run(map_cap, pooled=False, reduce_cap=reduce_cap)
    else:
        batches, makespan = _simulate(workflow, map_cap, order, pooled=False, reduce_cap=reduce_cap)
    return _batches_to_plan(
        batches, makespan, order, map_cap + reduce_cap, workflow.total_tasks, feasible
    )


def simulate_makespan(workflow: Workflow, cap: int, job_order: Optional[Sequence[str]] = None) -> float:
    """Makespan of the Algorithm 1 simulation at ``cap`` slots (cap search
    subroutine).  Uses the no-batch fast path: nothing is materialised
    beyond the event queue."""
    order = tuple(job_order) if job_order is not None else workflow.topological_order()
    _batches, makespan = _simulate(workflow, cap, order, pooled=True, collect_batches=False)
    return makespan
