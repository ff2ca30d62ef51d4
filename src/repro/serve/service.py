"""The multi-tenant planning service core (DESIGN.md §15).

:class:`PlanningService` is the transport-independent heart of ``repro
serve``: it owns the shared :class:`~repro.core.plancache.PlanCache`, the
:class:`~repro.serve.batching.BatchingPlanner`, and a
:class:`~repro.trace.DecisionTracer` that doubles as the per-tenant
accounting ledger (``tenant:<name>`` counter scopes, at most
:data:`MAX_TENANT_SCOPES` names plus ``tenant:other``) and the
``/v1/trace`` event stream.  :class:`~repro.serve.api.PlanServer` is one
transport over it; tests and the ``serve`` profile scenario drive it
directly.

Admission (§III's deadline guarantee, turned into an API): a workflow is
*admitted* exactly when the cap search run by
:meth:`~repro.core.client.WohaClient.generate_plan` would mark its plan
feasible — same pipeline, same cache, so the verdict can never disagree
with the plan a tenant later fetches.

The hit path: workflows are overwhelmingly recurrent (paper §III, Fig 12),
so most requests resend a body the service has seen.  Its two pure steps
are memoized.  :meth:`PlanningService.parse_workflow` keeps an LRU of
parsed bodies keyed by (format, body digest), bounded by
``cache_capacity``, that admits a body on its second sighting, and
:meth:`~repro.core.progress.ProgressPlan.to_bytes` computes a plan's wire
bytes once per plan.  Both are still called on every request; only the
repeated work is gone.  ``/v1/stats`` reports the memo as ``parse_memo``.

The miss path: the batcher keeps each structure's planning setup and its
finished plans across requests, so a recurrent structure with a new
deadline pays only for its own cap search.  ``/v1/stats`` reports them as
``setups``.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple, Union

from repro.core.client import ValidationError, ValidationReport, _resolve_prioritizer
from repro.core.plancache import PlanCache, PlanCacheEntry
from repro.core.priorities import PRIORITIZERS
from repro.core.progress import ProgressPlan
from repro.serve.batching import BatchingPlanner
from repro.trace import DecisionTracer
from repro.workflow.model import Workflow, WorkflowValidationError
from repro.workflow.xmlconfig import parse_workflow_xml
from repro.workloads.io import workflows_from_json

__all__ = ["MAX_TENANT_SCOPES", "PlanningService", "PlanOutcome", "ServiceConfig"]

#: Distinct tenant names that get their own counter scope.  Names come from
#: the client's ``X-Tenant`` header, so without a cap every new name would
#: add a scope for the life of the process; names first seen after the cap
#: count under ``tenant:other``.
MAX_TENANT_SCOPES = 256


def _parse_body(body: bytes, as_json: bool) -> Workflow:
    """Decode and validate one request body; raises ValidationError."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            ValidationReport((), (), errors=(f"undecodable request body: {exc}",))
        ) from exc
    if as_json:
        try:
            workflows = workflows_from_json(text)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            # RecursionError: json.loads on pathologically nested input.
            raise ValidationError(
                ValidationReport((), (), errors=(f"bad workflow JSON: {exc}",))
            ) from exc
        if len(workflows) != 1:
            raise ValidationError(
                ValidationReport(
                    (), (), errors=(f"expected exactly 1 workflow, got {len(workflows)}",)
                )
            )
        return workflows[0]
    try:
        return parse_workflow_xml(text)
    except WorkflowValidationError as exc:
        raise ValidationError(ValidationReport((), (), errors=(str(exc),))) from exc


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance.

    ``total_slots`` plays the role of the master's slot-count answer in the
    paper's step c — the one piece of cluster state planning needs.
    """

    total_slots: int = 64
    prioritizer: str = "lpf"
    cap_search: bool = True
    pool: str = "pooled"
    map_fraction: float = 2.0 / 3.0
    cache_capacity: int = 1024
    trace_capacity: Optional[int] = 4096

    def __post_init__(self) -> None:
        if self.total_slots < 1:
            raise ValueError(f"total_slots must be >= 1, got {self.total_slots}")
        if self.cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {self.cache_capacity}")
        if not 0.0 < self.map_fraction < 1.0:  # also rejects NaN
            raise ValueError(f"map_fraction must be in (0, 1), got {self.map_fraction}")
        if self.pool not in ("pooled", "split"):
            raise ValueError(f"unknown pool mode {self.pool!r}; pick 'pooled' or 'split'")
        if self.prioritizer not in PRIORITIZERS:
            raise ValueError(
                f"unknown prioritizer {self.prioritizer!r}; pick from {sorted(PRIORITIZERS)}"
            )


@dataclass(frozen=True)
class PlanOutcome:
    """One served plan: the entry, how it was obtained, and its request id."""

    plan: ProgressPlan
    search: Optional[Any]
    outcome: str  # "hit" | "miss" | "fused"
    request_id: int

    @property
    def admitted(self) -> bool:
        """The admission verdict: the plan's feasibility bit."""
        return self.plan.feasible


class PlanningService:
    """Shared planning state plus the plan/admit/trace operations."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.tracer = DecisionTracer(capacity=self.config.trace_capacity)
        self.cache = PlanCache(capacity=self.config.cache_capacity, tracer=self.tracer)
        self.batcher = BatchingPlanner(self.cache, tracer=self.tracer)
        self._prioritizer = _resolve_prioritizer(self.config.prioritizer)
        self.requests = 0
        self._tenant_scopes: Set[str] = set()
        #: (is JSON, body digest) -> parsed workflow, or ``None`` for a body
        #: seen once; see :meth:`parse_workflow`.
        self._parse_memo: "OrderedDict[Tuple[bool, bytes], Optional[Workflow]]" = OrderedDict()
        self.parse_memo_hits = 0

    # -- request parsing ----------------------------------------------------

    def parse_workflow(self, body: bytes, content_type: str = "application/xml") -> Workflow:
        """Decode one workflow from a request body (XML or JSON).

        XML is the paper's native submission format; JSON accepts a
        single-workflow ``repro-workflows`` document
        (:mod:`repro.workloads.io`), the format the sweep corpus and the
        ``benchmarks/e2e`` serve driver already speak.

        Parsing is a pure function of the body bytes and the format, and
        :class:`~repro.workflow.model.Workflow` is immutable, so the
        result is memoized under ``(format, blake2b-128 of the body)``.
        A body is retained only when it is seen again: the first
        successful parse leaves a ``None`` placeholder, the second stores
        the workflow, later ones return it.  Failures are never recorded.
        The memo is an LRU of at most ``cache_capacity`` keys.

        Raises:
            ValidationError: malformed body; ``.report.errors`` says why.
        """
        # Media types compare case-insensitively (RFC 9110 §8.3.1); the
        # memo key takes the same decision as the parser.
        as_json = "json" in content_type.partition(";")[0].lower()
        key = (as_json, hashlib.blake2b(body, digest_size=16).digest())
        memo = self._parse_memo
        seen = key in memo
        if seen:
            memo.move_to_end(key)
            workflow = memo[key]
            if workflow is not None:
                self.parse_memo_hits += 1
                return workflow
        workflow = _parse_body(body, as_json)
        memo[key] = workflow if seen else None
        if len(memo) > self.config.cache_capacity:
            memo.popitem(last=False)
        return workflow

    # -- operations ---------------------------------------------------------

    async def plan(
        self,
        workflow: Workflow,
        tenant: str = "default",
        total_slots: Optional[int] = None,
    ) -> PlanOutcome:
        """Plan one workflow through the shared batcher/cache.

        The plan bytes are identical to what a direct
        ``WohaClient.generate_plan`` (or ``make_planner``) call produces
        for the same configuration — the service adds sharing, never
        different answers (pinned by ``tests/serve/test_wire_equivalence``).
        """
        cfg = self.config
        slots = cfg.total_slots if total_slots is None else total_slots
        order = self._prioritizer(workflow)  # repro: calls[repro.core.priorities.hlf_order, repro.core.priorities.lpf_order, repro.core.priorities.mpf_order]
        (search, plan), outcome = await self.batcher.plan(
            workflow, tuple(order), slots,
            cap_search=cfg.cap_search, pool=cfg.pool, map_fraction=cfg.map_fraction,
        )
        self.requests += 1
        request_id = self.requests
        self.tracer.incr(f"tenant:{self._tenant_scope(tenant)}", outcome)
        self.tracer.record(
            "plan_served",
            float(request_id),  # request ordinal, not wall time: stays deterministic
            workflow=workflow.name,
            tenant=tenant,
            outcome=outcome,
            cap=plan.resource_cap,
            feasible=plan.feasible,
        )
        return PlanOutcome(plan=plan, search=search, outcome=outcome, request_id=request_id)

    def _tenant_scope(self, tenant: str) -> str:
        """The counter scope name ``tenant`` is accounted under."""
        scopes = self._tenant_scopes
        if tenant not in scopes and len(scopes) < MAX_TENANT_SCOPES:
            scopes.add(tenant)
        return tenant if tenant in scopes else "other"

    async def admit(
        self,
        workflow: Workflow,
        tenant: str = "default",
        total_slots: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Deadline-admission check: plan (shared with /v1/plan) + verdict."""
        served = await self.plan(workflow, tenant=tenant, total_slots=total_slots)
        plan = served.plan
        verdict = {
            "admitted": served.admitted,
            "workflow": workflow.name,
            "relative_deadline": workflow.relative_deadline,
            "resource_cap": plan.resource_cap,
            "makespan": plan.makespan,
            "outcome": served.outcome,
            "request_id": served.request_id,
        }
        self.tracer.record(
            "admission",
            float(served.request_id),
            workflow=workflow.name,
            tenant=tenant,
            admitted=served.admitted,
        )
        return verdict

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot: requests, cache, batching, retained
        setups, parse memo, tenants."""
        counters = self.tracer.counter_table()
        tenants = {
            scope[len("tenant:"):]: dict(table)
            for scope, table in counters.items()
            if scope.startswith("tenant:")
        }
        return {
            "requests": self.requests,
            "config": {
                "total_slots": self.config.total_slots,
                "prioritizer": self.config.prioritizer,
                "cap_search": self.config.cap_search,
                "pool": self.config.pool,
            },
            "plan_cache": {
                "size": len(self.cache),
                "capacity": self.cache.capacity,
                "hit_ratio": self.cache.hit_ratio,
                **self.cache.counter_table()[PlanCache.COUNTER_SCOPE],
            },
            "batch": dict(self.batcher.counter_table()[BatchingPlanner.COUNTER_SCOPE]),
            "setups": self.batcher.setup_table(),
            "parse_memo": {"size": len(self._parse_memo), "hits": self.parse_memo_hits},
            "tenants": tenants,
        }

    def trace_page(self, since: int = 0, limit: int = 256) -> Tuple[str, int]:
        """One ``/v1/trace`` page: JSONL body plus the next cursor."""
        events = self.tracer.events_since(since, limit=limit)
        body = "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
        next_cursor = (events[-1]["seq"] + 1) if events else max(since, 0)
        return body, next_cursor
