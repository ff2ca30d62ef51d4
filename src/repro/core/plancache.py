"""Recurrence-aware scheduling-plan cache (beyond the paper; DESIGN.md §6).

Algorithm 1 and the cap search are pure functions of the workflow's
*structure* — per-job task counts, durations and the prerequisite DAG —
plus the job priority order, the relative deadline ``D_i - S_i`` and the
system slot count.  Absolute submission time never enters the computation:
a plan is expressed in time-to-deadline.  Production workflows are
overwhelmingly periodic (``repro.workloads.recurrence``, paper Fig 12), so
the dated instances ``wf@0``, ``wf@1``, ... of a recurrent template all
map to the same fingerprint and can share one cached
``(CapSearchResult, ProgressPlan)`` pair instead of re-running the full
binary search per release.

Sharing is safe because :class:`~repro.core.progress.ProgressPlan` is
immutable; the master tracks per-workflow progress in
``WorkflowInProgress``, never in the plan.

The cache is a bounded LRU.  Hit/miss/eviction counts are kept on the
cache itself and exposed through :meth:`PlanCache.counter_table` — the
same duck-typed interface :class:`~repro.trace.DecisionTracer` offers — so
``MetricsCollector.aggregate_counters(cache)`` folds them into a run's
scheduler counters; attaching a tracer mirrors each event into its
``(plan_cache, ...)`` counters as well.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.core.progress import ProgressPlan
from repro.trace import NULL_TRACER
from repro.workflow.model import Workflow

__all__ = ["PlanCache", "PlanCacheEntry"]

#: What one cache slot holds: the cap-search outcome (``None`` when the
#: planner ran without cap search) and the finished plan.
PlanCacheEntry = Tuple[Optional[Any], ProgressPlan]

_Key = Tuple[Any, ...]

def _structure(workflow: Workflow) -> Tuple[Any, ...]:
    """Per-job structure in definition order."""
    return tuple(
        (
            job.name,
            job.num_maps,
            job.num_reduces,
            job.map_duration,
            job.reduce_duration,
            tuple(sorted(job.prerequisites)),
        )
        for job in workflow.jobs
    )


class PlanCache:
    """Bounded LRU cache of ``(cap search result, ProgressPlan)`` entries.

    Args:
        capacity: maximum retained entries; least-recently-used entries are
            evicted beyond it.
        tracer: optional :class:`~repro.trace.DecisionTracer`; every
            hit/miss/eviction is mirrored into its ``plan_cache`` counters.
    """

    #: Scheduler-counter namespace used in ``counter_table``/tracer incrs.
    COUNTER_SCOPE = "plan_cache"

    def __init__(self, capacity: int = 256, tracer=NULL_TRACER) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.tracer = tracer
        self._entries: "OrderedDict[_Key, PlanCacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- keying -------------------------------------------------------------

    @staticmethod
    def fingerprint(
        workflow: Workflow,
        job_order: Sequence[str],
        total_slots: int,
        mode: Iterable[Any] = (),
    ) -> _Key:
        """The cache key for planning ``workflow`` on ``total_slots`` slots.

        Captures everything the planning pipeline reads — per-job structure
        in definition order, the priority order, the *relative* deadline,
        the slot count, and the planner configuration ``mode`` (pool shape,
        cap-search flag, ...) — and nothing it does not: neither the
        workflow name nor its absolute submit time / deadline, so recurrent
        instances of one template collide by construction.

        The structure tuple is memoized on the workflow
        (:meth:`~repro.workflow.model.Workflow.derived`), so fingerprinting
        an object again — the serve tier's parse memo hands back the same
        object for a resent body — builds only the outer tuple.
        """
        return (
            workflow.derived(_structure),
            tuple(job_order),
            workflow.relative_deadline,
            total_slots,
            tuple(mode),
        )

    # -- lookup -------------------------------------------------------------

    def get_or_build(
        self,
        workflow: Workflow,
        job_order: Sequence[str],
        total_slots: int,
        mode: Iterable[Any],
        build: Callable[[], PlanCacheEntry],
        key: Optional[_Key] = None,
    ) -> PlanCacheEntry:
        """Return the cached entry for this planning problem, or build it.

        ``build`` runs only on a miss; its result is stored before being
        returned, evicting the least-recently-used entry when full.
        ``key`` is the :meth:`fingerprint` of the other arguments, for a
        caller that already computed it.
        """
        if key is None:
            key = self.fingerprint(workflow, job_order, total_slots, mode)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            self.tracer.incr(self.COUNTER_SCOPE, "hits")
            return entry
        # Build *before* touching counters or the table (DT303): if
        # ``build`` raises, the cache must look exactly as it did before
        # the lookup — no phantom miss, no dangling entry.
        entry = build()  # repro: calls[repro.core.client._plan_entry]
        self._commit(key, entry)
        return entry

    def lookup(
        self,
        workflow: Workflow,
        job_order: Sequence[str],
        total_slots: int,
        mode: Iterable[Any] = (),
        key: Optional[_Key] = None,
    ) -> Optional[PlanCacheEntry]:
        """Return the cached entry (counted as a hit) or ``None``.

        An absent key is *not* counted as a miss — miss accounting belongs
        to whoever performs the build (:meth:`get_or_build` or the serve
        tier's batch flush), so a lookup-then-build sequence records
        exactly one event per request.  ``key`` is as in
        :meth:`get_or_build`: a caller that keeps the fingerprint for its
        later build computes it once.
        """
        if key is None:
            key = self.fingerprint(workflow, job_order, total_slots, mode)
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            return None
        entries.move_to_end(key)
        self.hits += 1
        if self.tracer.enabled:
            self.tracer.incr(self.COUNTER_SCOPE, "hits")
        return entry

    def _commit(self, key: _Key, entry: PlanCacheEntry) -> None:
        """Record a completed build: miss accounting, insert, LRU evict."""
        tracer = self.tracer
        entries = self._entries
        scope = self.COUNTER_SCOPE
        self.misses += 1
        if tracer.enabled:
            tracer.incr(scope, "misses")
        entries[key] = entry
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
            if tracer.enabled:
                tracer.incr(scope, "evictions")

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def counter_table(self) -> Dict[str, Dict[str, Union[int, float]]]:
        """Stats in :meth:`repro.trace.DecisionTracer.counter_table` shape,
        so ``MetricsCollector.aggregate_counters`` accepts the cache
        directly."""
        return {
            self.COUNTER_SCOPE: {
                "evictions": self.evictions,
                "hits": self.hits,
                "misses": self.misses,
            }
        }

    def clear(self) -> None:
        """Drop all entries and reset the stats."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
