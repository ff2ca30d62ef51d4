"""Resource-capped plan generation (paper §IV-A, "An improvement").

An uncapped plan assumes the workflow owns the whole cluster, so its
progress requirements stay at zero until shortly before the deadline and
then demand a burst of slots — by the time the workflow falls behind, it is
too late (the paper's Fig 2a).  Capping the simulated slots makes the plan
demand steady progress.  The paper proposes a binary search for the
*minimum* cap under which the simulated makespan still meets the deadline:
the least optimistic plan that is still feasible.

Beyond the paper (probe reuse, DESIGN.md §6-§7): every probe within a
search is memoised, and the bisection branches without simulating
wherever an analytic bound already decides a midpoint.  Below a *floor*
a cap is infeasible with certainty: two lower bounds hold for *any*
schedule the simulator can produce (the work-area bound
``makespan >= total_work / cap`` and a critical-path bound summing each
chain job's phase spans at the probed cap).  At or above a *ceiling* a
pooled cap is feasible with certainty: the simulation is work-conserving,
so Graham's list-scheduling bound ``makespan <= total_work / cap + L``
holds, with ``L`` the task-level critical path (proof in
:func:`find_min_cap`).  The batches of the returned cap's simulation are
retained on the result so ``capped_plan`` / ``capped_plan_split`` build
the :class:`ProgressPlan` directly instead of re-running Algorithm 1 at
the found cap.  The bisection trajectory itself is the naive lo=1
search's, so the returned cap is identical by construction; the bounds
are applied with a conservative epsilon so floating-point drift can only
narrow the range they decide (costing probes, never a different answer).
``probes`` keeps counting actual simulations; it is read by the
``probes <= ref.probes`` check of ``tests/integration/test_plan_equivalence.py``
and by the e2e benchmark's ``capsearch.probes_per_search`` layer metric.

The split-pool search uses the floor only.  Its ceiling would be
``W_m / c_m + W_r / c_r + L``, which needs its own work-conservation
argument per pool; until that argument is written down and tested, the
split search simulates every midpoint the floor does not rule out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.plangen import (
    _batches_to_plan,
    _SimProblem,
    generate_requirements,
    generate_requirements_split,
)
from repro.core.progress import ProgressPlan
from repro.workflow.model import Workflow

__all__ = [
    "CapSearchResult",
    "SplitCapSearchResult",
    "find_min_cap",
    "find_min_cap_split",
    "capped_plan",
    "capped_plan_split",
    "plan_from_search",
]

# Relative slack applied to the analytic bounds: a cap is ruled out only
# when its lower bound exceeds the deadline by more than this margin, and
# ruled in only when its upper bound falls short of it by more, so the
# bounds can never disagree with the simulated verdict over float noise.
_BOUND_EPS = 1e-9

_Batches = List[Tuple[float, int]]


@dataclass(frozen=True)
class CapSearchResult:
    """Outcome of the binary search."""

    cap: int
    feasible: bool
    makespan: float
    probes: int  # number of Algorithm 1 simulations performed
    # Batches of the simulation at ``cap``, retained so the caller can
    # build the plan without re-simulating (``client._plan_entry`` drops
    # them once it has).  Excluded from equality/repr: it is derived
    # state, fully determined by the other fields.
    batches: Optional[_Batches] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class SplitCapSearchResult:
    """Outcome of the split-pool binary search."""

    map_cap: int
    reduce_cap: int
    feasible: bool
    makespan: float
    probes: int
    batches: Optional[_Batches] = field(default=None, repr=False, compare=False)


def _resolve_order(workflow: Workflow, job_order: Optional[Sequence[str]]) -> Tuple[str, ...]:
    return tuple(job_order) if job_order is not None else workflow.topological_order()


def _chain_time(
    jobs: Sequence,  # WJob along the critical path
    map_cap: int,
    reduce_cap: int,
) -> float:
    """Lower bound on the makespan contributed by one dependency chain.

    Chain jobs run strictly in sequence (a dependent unlocks only on
    completion, and a reduce phase opens only when its map phase drains),
    and a phase with ``m`` tasks on ``c`` slots spans at least
    ``max(duration, m * duration / c)`` by the slot-area argument.  No
    ceil(): concurrent batches of one phase can overlap once other jobs
    free slots mid-phase, so the wave count is not a sound bound — the
    area is.
    """
    total = 0.0
    for job in jobs:
        if job.num_maps:
            span = job.num_maps * job.map_duration / map_cap
            total += span if span > job.map_duration else job.map_duration
        if job.num_reduces:
            span = job.num_reduces * job.reduce_duration / reduce_cap
            total += span if span > job.reduce_duration else job.reduce_duration
    return total


def _seed_lo_pooled(problem: _SimProblem, deadline: float, max_slots: int) -> int:
    """Smallest cap the analytic bounds cannot rule out (pooled slots).

    Reads the problem's ``total_work`` and ``critical_chain``, which share
    :func:`_graham_ceiling`'s inputs through the workflow's memo, so the
    DAG is walked at most once per workflow object, across searches.
    """
    lo = 1
    if deadline <= 0:
        return lo
    total_work = problem.total_work
    if total_work > 0:
        # Work-area bound: cap * makespan >= total_work.
        ratio = total_work / deadline
        lo = max(lo, math.ceil(ratio - _BOUND_EPS * (ratio if ratio > 1.0 else 1.0)))
    if lo >= max_slots:
        return max_slots
    chain_jobs = problem.critical_chain
    slack = deadline + _BOUND_EPS * (abs(deadline) if abs(deadline) > 1.0 else 1.0)
    if _chain_time(chain_jobs, lo, lo) > slack:
        # Chain time is non-increasing in the cap; find the smallest cap
        # the chain bound admits.  max_slots always qualifies (the caller
        # only seeds once it knows max_slots is feasible, by probe or by
        # the ceiling, and the bound is a lower bound on the makespan).
        low, high = lo, max_slots
        while low < high:
            mid = (low + high) // 2
            if _chain_time(chain_jobs, mid, mid) > slack:
                low = mid + 1
            else:
                high = mid
        lo = low
    return min(lo, max_slots)


def _graham_ceiling(total_work: float, longest: float, deadline: float) -> Optional[int]:
    """Smallest cap ``c >= 1`` with ``total_work / c + longest`` under the
    deadline by the epsilon margin, or ``None`` when no cap qualifies.

    The margin is subtracted, so float noise can only raise the ceiling
    (one more simulated probe), never admit an infeasible cap.
    """
    slack = deadline - _BOUND_EPS * (abs(deadline) if abs(deadline) > 1.0 else 1.0)
    room = slack - longest
    if room <= 0:
        return None
    cap = max(1, math.ceil(total_work / room))
    while total_work / cap + longest > slack:  # ceil() rounded the wrong way
        cap += 1
    return cap


def find_min_cap(
    workflow: Workflow,
    max_slots: int,
    relative_deadline: Optional[float] = None,
    job_order: Optional[Sequence[str]] = None,
    problem: Optional[_SimProblem] = None,
    memo: Optional[Dict[int, Tuple[Optional[_Batches], float]]] = None,
) -> CapSearchResult:
    """Binary-search the minimum cap whose simulated makespan meets the
    relative deadline.

    Args:
        workflow: the workflow to plan.
        max_slots: the system slot count ``n`` reported by the master.
        relative_deadline: ``D_i - S_i``; defaults to the workflow's own.
        job_order: intra-workflow priority order fed to Algorithm 1.
        problem: pre-built :class:`_SimProblem` for ``(workflow, order)``;
            searches over structurally identical workflows share one
            setup, and the bound inputs it caches, instead of rebuilding
            them per search.
        memo: external probe memo ``{cap: (batches, makespan)}`` shared
            *across* searches on the same problem.  A probe at a given cap
            is a pure function of the problem, never of the deadline, so
            searches that differ only in deadline or slot count reuse each
            other's simulations (the serve-tier batch fusion); ``probes``
            still counts only the simulations this call performed.

    Returns:
        The minimal feasible cap, or ``cap == max_slots`` with
        ``feasible=False`` when even the whole cluster cannot meet the
        deadline in simulation (the plan is then the most optimistic one
        available, which is all a best-effort scheduler can do).  The
        result retains the batches of the simulation at the returned cap.

    The paper relies on makespan being non-increasing in the cap.  Our
    greedy list simulation can in principle exhibit Graham anomalies; the
    binary search matches the paper, and the final plan is built from the
    simulation at the returned cap, so any anomaly costs only plan quality,
    never correctness.  The analytic bounds only suppress simulations
    whose verdict is already certain, so the search visits the same
    midpoints and returns the same cap as the unpruned search — anomalies
    or not.

    Why the ceiling is certain: ``_SimProblem.run(pooled=True)`` drains
    every event at an instant before it assigns, and stops assigning only
    when no slot is free or the heap holds no job with an unassigned
    ready phase (a partially served phase goes back into the heap).  So
    every instant before the makespan is either fully busy, and those
    instants total at most ``W / cap`` because the busy area is at most
    ``W``; or no ready task waits, and then Graham's chain argument
    (walk back from the last task to finish, each time to a predecessor
    running at the latest not-fully-busy instant before the current task
    starts)
    covers it with a task of one precedence chain.  Chain tasks sum to at
    most ``L``, the heaviest job chain by ``serial_length``.  Hence
    ``makespan <= W / cap + L``, and every cap at or above
    :func:`_graham_ceiling` meets the deadline.  The returned cap is
    simulated once at the end if the bounds alone decided it, so
    ``batches`` and ``makespan`` are always the simulated ones.
    """
    if max_slots < 1:
        raise ValueError("max_slots must be >= 1")
    if relative_deadline is None:
        relative_deadline = workflow.relative_deadline
    order = _resolve_order(workflow, job_order)
    if problem is None:
        problem = _SimProblem(workflow, order)  # setup shared by every probe
    elif problem.order != order:
        raise ValueError("shared _SimProblem was built for a different job order")
    if memo is None:
        memo = {}
    probes = 0

    def probe(cap: int) -> Tuple[Optional[_Batches], float]:
        nonlocal probes
        cached = memo.get(cap)
        if cached is None:
            probes += 1
            cached = problem.run(cap, pooled=True)
            memo[cap] = cached
        return cached

    if relative_deadline is None:
        # Best-effort workflow: no deadline to honour; plan at full size.
        batches, makespan = probe(max_slots)
        return CapSearchResult(
            cap=max_slots, feasible=True, makespan=makespan, probes=probes, batches=batches
        )

    ceiling = _graham_ceiling(
        problem.total_work, max(problem.longest_path_weights.values()), relative_deadline
    )
    if ceiling is None:
        ceiling = max_slots + 1  # no cap is certain; simulate them all
    if max_slots < ceiling:
        batches_at_max, makespan_at_max = probe(max_slots)
        if makespan_at_max > relative_deadline:
            return CapSearchResult(
                cap=max_slots,
                feasible=False,
                makespan=makespan_at_max,
                probes=probes,
                batches=batches_at_max,
            )

    # Invariant: hi is feasible.  The bisection trajectory is the naive
    # lo=1 search's, unchanged — but a midpoint below the floor is
    # provably infeasible and one at or above the ceiling provably
    # feasible, so its branch is taken without running Algorithm 1.
    floor = _seed_lo_pooled(problem, relative_deadline, max_slots)
    lo, hi = 1, max_slots
    while lo < hi:
        mid = (lo + hi) // 2
        if mid < floor:
            lo = mid + 1
            continue
        if mid >= ceiling:
            hi = mid
            continue
        _batches, makespan = probe(mid)
        if makespan <= relative_deadline:
            hi = mid
        else:
            lo = mid + 1
    batches, best_makespan = probe(hi)
    return CapSearchResult(
        cap=hi, feasible=True, makespan=best_makespan, probes=probes, batches=batches
    )


def plan_from_search(
    workflow: Workflow,
    job_order: Sequence[str],
    result: "CapSearchResult | SplitCapSearchResult",
) -> ProgressPlan:
    """Build the :class:`ProgressPlan` a search result stands for.

    Uses the batches retained from the search's final probe when present
    (no re-simulation); otherwise falls back to re-running Algorithm 1 at
    the found cap(s) — e.g. for a hand-constructed result.  ``job_order``
    must be the order the search ran with.
    """
    order = tuple(job_order)
    if isinstance(result, CapSearchResult):
        cap = result.cap
    else:
        cap = result.map_cap + result.reduce_cap
    if result.batches is not None:
        return _batches_to_plan(
            result.batches, result.makespan, order, cap, workflow.total_tasks, result.feasible
        )
    if isinstance(result, CapSearchResult):
        return generate_requirements(workflow, cap, order, feasible=result.feasible)
    return generate_requirements_split(
        workflow, result.map_cap, result.reduce_cap, order, feasible=result.feasible
    )


def capped_plan(
    workflow: Workflow,
    max_slots: int,
    job_order: Optional[Sequence[str]] = None,
    relative_deadline: Optional[float] = None,
) -> ProgressPlan:
    """Convenience: cap search + plan built from the search's final probe."""
    order = _resolve_order(workflow, job_order)
    result = find_min_cap(workflow, max_slots, relative_deadline, order)
    return plan_from_search(workflow, order, result)


def _split_caps(k: int, total: int, map_fraction: float) -> "tuple[int, int]":
    """Scale the cluster's map/reduce pool mix down to ``k`` total slots.

    ``total`` is the cluster's full slot count; the returned caps are
    clamped to the pool sizes it implies, so rounding (or the ``max(1, ..)``
    floors) can never hand a plan more map or reduce parallelism of either
    kind than the modelled cluster actually has.
    """
    pool_maps = max(1, round(total * map_fraction))
    pool_reduces = max(1, total - pool_maps)
    map_cap = min(pool_maps, max(1, round(k * map_fraction)))
    reduce_cap = min(pool_reduces, max(1, k - map_cap))
    return map_cap, reduce_cap


def _seed_lo_split(
    problem: _SimProblem,
    deadline: float,
    max_slots: int,
    map_fraction: float,
    floor: int,
) -> int:
    """Smallest total ``k`` the analytic bounds cannot rule out (split pools)."""
    lo = floor
    if deadline <= 0:
        return lo
    total_work = problem.total_work
    if total_work > 0:
        # ``_split_caps`` yields at most k + 1 slots in total, so the
        # work-area bound on k is one looser than the pooled one.
        ratio = total_work / deadline
        lo = max(lo, math.ceil(ratio - _BOUND_EPS * (ratio if ratio > 1.0 else 1.0)) - 1)
    lo = max(floor, min(lo, max_slots))
    if lo >= max_slots:
        return max_slots
    chain_jobs = problem.critical_chain
    slack = deadline + _BOUND_EPS * (abs(deadline) if abs(deadline) > 1.0 else 1.0)

    def chain_at(k: int) -> float:
        mc, rc = _split_caps(k, max_slots, map_fraction)
        return _chain_time(chain_jobs, mc, rc)

    # Both caps are non-decreasing in k, so chain_at is non-increasing.
    if chain_at(lo) > slack:
        low, high = lo, max_slots
        while low < high:
            mid = (low + high) // 2
            if chain_at(mid) > slack:
                low = mid + 1
            else:
                high = mid
        lo = low
    return min(lo, max_slots)


def find_min_cap_split(
    workflow: Workflow,
    max_slots: int,
    map_fraction: float = 2.0 / 3.0,
    relative_deadline: Optional[float] = None,
    job_order: Optional[Sequence[str]] = None,
    problem: Optional[_SimProblem] = None,
    memo: Optional[Dict[Tuple[int, int], Tuple[Optional[_Batches], float]]] = None,
) -> SplitCapSearchResult:
    """Split-pool variant of :func:`find_min_cap` (our ablation, DESIGN.md §6).

    The paper's Algorithm 1 pools map and reduce slots into a single cap,
    which lets a plan assume more reduce parallelism than the reduce pool
    can deliver; in tight regimes the workflow then slips behind a plan it
    is nominally following.  This search scales a (map, reduce) cap pair in
    the cluster's own pool ratio (``map_fraction``) and finds the smallest
    total that still meets the deadline under the split model.

    A one-slot cluster degrades gracefully (the search floor clamps to the
    slot count and ``_split_caps`` floors both pools at one), mirroring the
    pooled search rather than rejecting the configuration.  Distinct totals
    ``k`` can scale to the same ``(map_cap, reduce_cap)`` pair; the probe
    memo collapses them, so ``probes`` counts distinct simulations.

    ``problem`` and ``memo`` mirror :func:`find_min_cap`'s fusion seams:
    the memo is keyed by the scaled ``(map_cap, reduce_cap)`` pair, which
    is a complete description of one probe on a given problem, so it is
    shareable across deadlines and slot counts alike.
    """
    if max_slots < 1:
        raise ValueError("max_slots must be >= 1")
    if not (0.0 < map_fraction < 1.0):
        raise ValueError("map_fraction must be in (0, 1)")
    if relative_deadline is None:
        relative_deadline = workflow.relative_deadline
    order = _resolve_order(workflow, job_order)
    if problem is None:
        problem = _SimProblem(workflow, order)  # setup shared by every probe
    elif problem.order != order:
        raise ValueError("shared _SimProblem was built for a different job order")
    if memo is None:
        memo = {}
    probes = 0

    def probe(k: int) -> Tuple[Optional[_Batches], float]:
        nonlocal probes
        key = _split_caps(k, max_slots, map_fraction)
        cached = memo.get(key)
        if cached is None:
            probes += 1
            mc, rc = key
            cached = problem.run(mc, pooled=False, reduce_cap=rc)
            memo[key] = cached
        return cached

    if relative_deadline is None:
        # Best-effort workflow: no deadline to honour; plan at full size
        # (mirrors find_min_cap's early return, one probe).
        mc, rc = _split_caps(max_slots, max_slots, map_fraction)
        batches, makespan = probe(max_slots)
        return SplitCapSearchResult(mc, rc, True, makespan, probes, batches)

    batches_at_max, top = probe(max_slots)
    if top > relative_deadline:
        mc, rc = _split_caps(max_slots, max_slots, map_fraction)
        return SplitCapSearchResult(mc, rc, False, top, probes, batches_at_max)

    start = min(2, max_slots)
    floor = _seed_lo_split(problem, relative_deadline, max_slots, map_fraction, start)
    lo, hi = start, max_slots
    while lo < hi:
        mid = (lo + hi) // 2
        if mid < floor:
            lo = mid + 1
            continue
        _batches, makespan = probe(mid)
        if makespan <= relative_deadline:
            hi = mid
        else:
            lo = mid + 1
    mc, rc = _split_caps(hi, max_slots, map_fraction)
    batches, best = memo[(mc, rc)]
    return SplitCapSearchResult(mc, rc, True, best, probes, batches)


def capped_plan_split(
    workflow: Workflow,
    max_slots: int,
    map_fraction: float = 2.0 / 3.0,
    job_order: Optional[Sequence[str]] = None,
    relative_deadline: Optional[float] = None,
) -> ProgressPlan:
    """Split-pool cap search + plan built from the search's final probe."""
    order = _resolve_order(workflow, job_order)
    result = find_min_cap_split(workflow, max_slots, map_fraction, relative_deadline, order)
    return plan_from_search(workflow, order, result)
