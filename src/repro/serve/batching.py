"""Micro-batched plan building with retained shared setups (DESIGN.md §15).

The planning pipeline splits into a per-*structure* part and a per-*request*
part.  ``_SimProblem`` (:mod:`repro.core.plangen`) precomputes everything
that depends only on the workflow DAG and the job order; a cap-search probe
at cap ``c`` is then a pure function of ``(problem, c)`` — the deadline only
decides *which* caps get probed — and the finished plan a pure function of
the problem and the search outcome.  Recurrent structures come back with
per-tenant deadlines (the multi-tenant cold-start pattern: one template,
many deadlines), so those parts are worth keeping between requests.

:class:`BatchingPlanner` exploits that overlap with a next-turn flush:

1. A cache **hit** bypasses the batcher entirely — batching must never slow
   down the recurrent steady state.
2. A miss parks in the pending list; the first miss to join an empty list
   schedules :meth:`~BatchingPlanner.flush_now` with ``loop.call_soon``.
   Every miss that parks before that callback runs — the rest of the
   current ready-queue burst — joins the same batch, so there is no idle
   wait, and under load batches grow by themselves while a flush holds
   the loop.
3. The flush runs **synchronously** — no awaits between its cache reads and
   writes — so it is atomic with respect to the event loop: the cache is a
   single-writer structure and needs no locks (DESIGN.md §15.3).  It is
   also the only way a miss gets built, so no in-flight guard is needed
   either: an identical request parks before the flush (and fuses) or
   looks up after its commit (and hits).
4. Within a flush, requests with identical fingerprints collapse to one
   build (outcome ``"fused"``).  Distinct fingerprints sharing a fusion key
   (structure, job order, planner mode — everything *except* deadline and
   slot count) share one probe memo for the flush, and one retained
   *setup*: a ``_SimProblem`` plus a memo of finished plans keyed by the
   search outcome.  Setups outlive the flush in an LRU keyed by the fusion
   key, so a structure seen again in a later flush skips the setup build,
   and a search that lands on an outcome seen before reuses its plan
   object (and its cached wire bytes).  Retained setups and retained
   plans are each bounded by the plan cache's capacity; whole setups are
   evicted least-recently-used.  A waiter cancelled before the flush (a
   client that went away) is dropped from the batch and never fails the
   requests it would have fused with.

Plan bytes are unchanged by construction: a probe's outcome at a given cap
is deterministic, so memo-served probes return exactly what a fresh
simulation would, and a memo-served plan is what a fresh build would make;
only the *count* of simulations and plan builds drops.
``tests/serve/test_wire_equivalence.py`` pins this against the direct
:meth:`~repro.core.client.WohaClient.generate_plan` path.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Tuple, Union

from repro.core.client import _plan_entry, plan_cache_mode
from repro.core.plancache import PlanCache, PlanCacheEntry
from repro.core.plangen import _SimProblem
from repro.core.progress import ProgressPlan
from repro.trace import NULL_TRACER
from repro.workflow.model import Workflow

_Key = Tuple[Any, ...]

__all__ = ["BatchingPlanner"]


class _PendingRequest:
    """One parked cache miss awaiting the next flush."""

    __slots__ = ("workflow", "order", "total_slots", "cap_search", "pool",
                 "map_fraction", "mode", "key", "future")

    def __init__(
        self,
        workflow: Workflow,
        order: Tuple[str, ...],
        total_slots: int,
        cap_search: bool,
        pool: str,
        map_fraction: float,
        mode: Tuple[Any, ...],
        key: _Key,
        future: "asyncio.Future[Tuple[PlanCacheEntry, str]]",
    ) -> None:
        self.workflow = workflow
        self.order = order
        self.total_slots = total_slots
        self.cap_search = cap_search
        self.pool = pool
        self.map_fraction = map_fraction
        self.mode = mode
        self.key = key  # the PlanCache fingerprint, computed once at lookup
        self.future = future


class _Setup:
    """One structure's retained planning state: the ``_SimProblem`` and
    the plans built from it, keyed by search outcome (see ``_plan_entry``)."""

    __slots__ = ("problem", "plans")

    def __init__(self, problem: _SimProblem) -> None:
        self.problem = problem
        self.plans: Dict[Hashable, ProgressPlan] = {}


class BatchingPlanner:
    """Fuses concurrent plan requests into shared-setup batches.

    The serve tier's one planning path: hits are answered from the cache,
    every miss is built by a :meth:`flush_now` batch.

    Args:
        cache: the shared :class:`~repro.core.plancache.PlanCache`; hits are
            served from it synchronously, batch builds commit into it.  Its
            ``capacity`` also bounds the retained setups and, separately,
            the plans they hold.
        tracer: mirrors batch counters into the ``serve_batch`` scope.
    """

    COUNTER_SCOPE = "serve_batch"

    def __init__(self, cache: PlanCache, tracer=NULL_TRACER) -> None:
        self.cache = cache
        self.tracer = tracer
        self._pending: List[_PendingRequest] = []
        #: fusion key -> retained setup, least recently used first.
        self._setups: "OrderedDict[_Key, _Setup]" = OrderedDict()
        self._retained_plans = 0  # sum of len(setup.plans) over _setups
        self.batches = 0
        self.batched_requests = 0
        self.fused = 0
        self.shared_setups = 0

    async def plan(
        self,
        workflow: Workflow,
        job_order: Tuple[str, ...],
        total_slots: int,
        cap_search: bool = True,
        pool: str = "pooled",
        map_fraction: float = 2.0 / 3.0,
    ) -> Tuple[PlanCacheEntry, str]:
        """Resolve one plan request; returns ``(entry, outcome)``.

        Outcomes: ``"hit"`` (served from cache, never parked), ``"miss"``
        (this request's batch built it) or ``"fused"`` (an identical
        request in the same batch built it).
        """
        mode = plan_cache_mode(pool, cap_search, map_fraction)
        key = PlanCache.fingerprint(workflow, job_order, total_slots, mode)
        entry = self.cache.lookup(workflow, job_order, total_slots, mode, key=key)
        if entry is not None:
            return entry, "hit"
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Tuple[PlanCacheEntry, str]]" = loop.create_future()
        if not self._pending:
            # Runs after every callback already in the ready queue, so the
            # rest of this burst parks first and joins the batch.
            loop.call_soon(self.flush_now)
        self._pending.append(
            _PendingRequest(
                workflow, tuple(job_order), total_slots, cap_search, pool,
                map_fraction, mode, key, future,
            )
        )
        return await future

    def flush_now(self) -> int:
        """Drain the pending list in one synchronous batch; returns its size.

        The event loop calls this one turn after the first miss parks;
        tests may also call it directly.  Waiters cancelled while parked
        are dropped and not counted.
        """
        batch = [req for req in self._pending if not req.future.cancelled()]
        self._pending = []
        if batch:
            self._flush(batch)
        return len(batch)

    def _flush(self, batch: List[_PendingRequest]) -> None:
        # Stage 1 — collapse identical fingerprints: one build serves all
        # duplicate requests in the batch (outcome "fused" for the extras).
        by_key: Dict[_Key, List[_PendingRequest]] = {}
        for req in batch:
            group = by_key.get(req.key)
            if group is None:
                by_key[req.key] = [req]  # one accumulator per distinct fingerprint
            else:
                group.append(req)
        # Stage 2 — group distinct fingerprints by fusion key: everything
        # except the relative deadline and the slot count.  Members share a
        # retained setup and, for this flush, a probe memo.
        fusion: Dict[_Key, List[Tuple[_Key, List[_PendingRequest]]]] = {}
        for key, group in by_key.items():
            fkey = (key[0], key[1], key[4])  # (structure, order, mode) grouping key
            members = fusion.get(fkey)
            if members is None:
                fusion[fkey] = [(key, group)]  # one accumulator per fusion group
            else:
                members.append((key, group))
        fused_here = len(batch) - len(by_key)
        shared_here = 0
        for fkey, members in fusion.items():
            # The probe memo lives for this flush only; see DESIGN.md §15.
            memo: Dict[Any, Any] = {}  # one probe memo per fusion group
            for key, group in members:
                lead = group[0]
                try:
                    setup, reused = self._setup_for(fkey, lead)
                    held = len(setup.plans)
                    entry = self.cache.get_or_build(
                        lead.workflow, lead.order, lead.total_slots, lead.mode,
                        key=key,
                        build=lambda r=lead, s=setup, m=memo: _plan_entry(
                            r.workflow, r.order, r.total_slots, r.cap_search,
                            r.pool, r.map_fraction, problem=s.problem, memo=m,
                            plans=s.plans,
                        ),
                    )
                except Exception as exc:  # repro: allow[DT303] - forwarded to each requester's future, never swallowed
                    for req in group:
                        future = req.future
                        if not future.done():
                            future.set_exception(exc)
                    continue
                shared_here += reused
                self._retained_plans += len(setup.plans) - held
                self._evict()
                outcome = "miss"
                for req in group:
                    future = req.future
                    if not future.done():
                        future.set_result((entry, outcome))  # the per-request result pair
                    outcome = "fused"
        self.batches += 1
        self.batched_requests += len(batch)
        self.fused += fused_here
        self.shared_setups += shared_here
        if self.tracer.enabled:
            self.tracer.incr(self.COUNTER_SCOPE, "batches")
            self.tracer.incr(self.COUNTER_SCOPE, "batched_requests", len(batch))
            if fused_here:
                self.tracer.incr(self.COUNTER_SCOPE, "fused", fused_here)
            if shared_here:
                self.tracer.incr(self.COUNTER_SCOPE, "shared_setups", shared_here)

    def _setup_for(self, fkey: _Key, lead: _PendingRequest) -> Tuple[_Setup, bool]:
        """The retained setup for ``fkey``, built from ``lead`` if absent;
        returns ``(setup, reused)`` and marks the setup most recently used."""
        setups = self._setups
        setup = setups.get(fkey)
        if setup is not None:
            setups.move_to_end(fkey)
            return setup, True
        setup = _Setup(_SimProblem(lead.workflow, lead.order))
        setups[fkey] = setup
        self._evict()
        return setup, False

    def _evict(self) -> None:
        """Hold retained setups and their plans each within the cache's
        capacity: drop least-recently-used setups, and when the most recent
        one alone holds too many plans, its oldest plans."""
        capacity = self.cache.capacity
        setups = self._setups
        while len(setups) > 1 and (
            len(setups) > capacity or self._retained_plans > capacity
        ):
            _fkey, dropped = setups.popitem(last=False)
            self._retained_plans -= len(dropped.plans)
        if self._retained_plans > capacity:
            plans = next(reversed(setups.values())).plans
            while len(plans) > capacity:
                del plans[next(iter(plans))]
            self._retained_plans = len(plans)

    def counter_table(self) -> Dict[str, Dict[str, Union[int, float]]]:
        """Batch stats in the ``counter_table`` duck-type, so
        ``MetricsCollector.aggregate_counters`` accepts the planner."""
        return {
            self.COUNTER_SCOPE: {
                "batched_requests": self.batched_requests,
                "batches": self.batches,
                "fused": self.fused,
                "shared_setups": self.shared_setups,
            }
        }

    def setup_table(self) -> Dict[str, int]:
        """Retained-setup occupancy: setups held and plans they hold."""
        return {"size": len(self._setups), "plans": self._retained_plans}
