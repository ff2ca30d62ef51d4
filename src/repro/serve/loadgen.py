"""Closed-loop load generator for the planning service (``repro serve-bench``).

Measures end-to-end plan latency through the real wire path: for every
bench cell a **fresh** :class:`~repro.serve.service.PlanningService` +
:class:`~repro.serve.api.PlanServer` pair is started on an ephemeral port
inside the same event loop, ``concurrency`` closed-loop clients each hold
one keep-alive connection and fire ``requests_per_client`` ``POST
/v1/plan`` requests back-to-back, and the per-request wall latency feeds
p50/p99.  A cell holds tens to hundreds of samples, too few for a
meaningful p999.  Request bodies are pre-serialized before the clock starts,
so the measured path is socket → parse → plan → respond.

Two request mixes, matching the multi-tenant patterns DESIGN.md §15
optimises for:

``recurrent``
    Every client cycles through the same few workflow templates
    unchanged — the periodic-production steady state.  After the first
    builds, everything is a cache hit; the acceptance bar is a ≥90%
    hit-rate (hits bypass the batcher entirely).
``cold``
    The same templates but every request carries a distinct relative
    deadline (deterministic jitter on the request ordinal), so every
    fingerprint misses.  This is where shared-setup fusion earns its
    keep: concurrent misses on one structure share a ``_SimProblem`` and
    a probe memo.

Workload templates come from the sweep scenario registry
(:data:`repro.experiments.scenarios.SCENARIOS`), so the bench plans the
same workflows the experiment tier schedules.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.scenarios import SCENARIOS
from repro.metrics.report import format_table
from repro.serve.api import PlanServer
from repro.serve.service import PlanningService, ServiceConfig
from repro.workflow.model import Workflow
from repro.workloads.io import workflows_to_json

__all__ = [
    "bench_templates",
    "build_request",
    "cell_workflows",
    "cells_table",
    "jittered",
    "percentile",
    "run_cell",
    "run_serve_bench",
    "CELL_KEYS",
    "LATENCY_KEYS",
    "MIXES",
]

MIXES = ("recurrent", "cold")

#: Keys every bench cell carries (pinned by the tier-1 guard test).
CELL_KEYS = (
    "mix", "concurrency", "requests", "seconds",
    "plans_per_sec", "latency_ms", "outcomes", "hit_rate",
)
LATENCY_KEYS = ("p50", "p99")


def bench_templates(scenario: str = "serve", seed: int = 7, scale: float = 0.5) -> List[Workflow]:
    """Deadline-bearing workflow templates from the sweep scenario registry."""
    workflows, _outages = SCENARIOS[scenario](seed, scale)
    templates = [w for w in workflows if w.relative_deadline is not None]
    if not templates:
        raise ValueError(f"scenario {scenario!r} yields no deadline-bearing workflows")
    return templates


def jittered(template: Workflow, ordinal: int, total: int) -> Workflow:
    """A copy whose *relative* deadline is unique to ``ordinal`` of ``total``.

    The jitter is a tiny deterministic stretch, ``ordinal / (total * 1000)``
    — below 0.1% for every ``ordinal < total`` — enough to change the cache
    fingerprint without changing feasibility, so every cold-mix request is
    a genuine miss on a shared structure.
    """
    base = template.relative_deadline
    assert base is not None
    return template.with_timing(
        submit_time=0.0, deadline=base * (1.0 + ordinal / (total * 1000.0))
    )


def build_request(workflow: Workflow, tenant: str, path: str = "/v1/plan") -> bytes:
    """One pre-serialized HTTP request (JSON workflow body, keep-alive)."""
    body = workflows_to_json([workflow]).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"X-Tenant: {tenant}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str], bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if line:
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


async def _client_loop(
    port: int,
    requests: Sequence[bytes],
    latencies_ms: List[float],
    outcomes: "Counter[str]",
) -> None:
    """One closed-loop client: fire each request, wait for its response."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for request in requests:
            start = time.perf_counter()  # repro: allow[DT102] - latency measurement, not a decision input
            writer.write(request)
            await writer.drain()
            status, headers, body = await _read_response(reader)
            latencies_ms.append((time.perf_counter() - start) * 1e3)  # repro: allow[DT102] - latency measurement, not a decision input
            if status != 200:
                raise RuntimeError(f"plan request failed: {status} {body[:200]!r}")
            outcomes[headers.get("x-plan-outcome", "unknown")] += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values (0 when empty)."""
    if not sorted_values:
        return 0.0
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


def cell_workflows(
    mix: str,
    templates: Sequence[Workflow],
    concurrency: int,
    requests_per_client: int,
) -> List[List[Workflow]]:
    """The workflows each client plans, in order, one list per client."""
    if mix not in MIXES:
        raise ValueError(f"unknown mix {mix!r}; pick from {MIXES}")
    total = concurrency * requests_per_client
    schedule: List[List[Workflow]] = []
    for client in range(concurrency):
        workflows = []
        for i in range(requests_per_client):
            if mix == "cold":
                # All tenants plan the *same* template each round with a
                # per-request deadline: every fingerprint misses, but the
                # concurrent misses share one structure — the fusion case.
                template = jittered(
                    templates[i % len(templates)], client * requests_per_client + i, total
                )
            else:
                template = templates[(client + i) % len(templates)]
            workflows.append(template)
        schedule.append(workflows)
    return schedule


async def _run_cell_async(
    mix: str,
    concurrency: int,
    requests_per_client: int,
    templates: Sequence[Workflow],
    total_slots: int,
) -> Dict[str, Any]:
    config = ServiceConfig(total_slots=total_slots, trace_capacity=64)
    service = PlanningService(config)
    server = PlanServer(service, host="127.0.0.1", port=0)
    await server.start()
    schedule = [
        [build_request(w, f"client{client:02d}") for w in workflows]
        for client, workflows in enumerate(
            cell_workflows(mix, templates, concurrency, requests_per_client)
        )
    ]
    latencies_ms: List[float] = []
    outcomes: "Counter[str]" = Counter()
    try:
        start = time.perf_counter()  # repro: allow[DT102] - throughput measurement, not a decision input
        await asyncio.gather(
            *(_client_loop(server.port, requests, latencies_ms, outcomes) for requests in schedule)
        )
        seconds = time.perf_counter() - start  # repro: allow[DT102] - throughput measurement, not a decision input
    finally:
        await server.stop()
    latencies_ms.sort()
    total = concurrency * requests_per_client
    return {
        "mix": mix,
        "concurrency": concurrency,
        "requests": total,
        "seconds": round(seconds, 4),
        "plans_per_sec": round(total / seconds, 1) if seconds > 0 else 0.0,
        "latency_ms": {
            "p50": round(percentile(latencies_ms, 0.50), 3),
            "p99": round(percentile(latencies_ms, 0.99), 3),
        },
        "outcomes": {name: outcomes[name] for name in sorted(outcomes)},
        "hit_rate": round(outcomes["hit"] / total, 4) if total else 0.0,
    }


def run_cell(
    mix: str,
    concurrency: int,
    requests_per_client: int,
    templates: Sequence[Workflow],
    total_slots: int = 64,
) -> Dict[str, Any]:
    """One bench cell (fresh service + server; own event loop)."""
    return asyncio.run(
        _run_cell_async(mix, concurrency, requests_per_client, templates, total_slots)
    )


def run_serve_bench(
    concurrency_levels: Sequence[int] = (2, 8, 16),
    requests_per_client: int = 25,
    scenario: str = "serve",
    seed: int = 7,
    scale: float = 0.5,
    total_slots: int = 200,
    mixes: Sequence[str] = MIXES,
) -> Dict[str, Any]:
    """The full grid: mix × concurrency; returns the payload.

    The ``summary`` block restates the acceptance bar — the lowest
    recurrent-mix hit rate — so trajectory diffs need not scan the cell
    list.
    """
    templates = bench_templates(scenario, seed, scale)
    cells = [
        run_cell(mix, concurrency, requests_per_client, templates, total_slots)
        for mix in mixes
        for concurrency in concurrency_levels
    ]
    recurrent_hits = [c["hit_rate"] for c in cells if c["mix"] == "recurrent"]
    summary: Dict[str, Any] = {
        "top_concurrency": max(concurrency_levels),
        "recurrent_hit_rate": min(recurrent_hits) if recurrent_hits else None,
    }
    return {
        "bench": "serve",
        "config": {
            "scenario": scenario,
            "seed": seed,
            "scale": scale,
            "total_slots": total_slots,
            "concurrency_levels": list(concurrency_levels),
            "requests_per_client": requests_per_client,
            "templates": len(templates),
        },
        "cells": cells,
        "summary": summary,
    }


def cells_table(cells: Sequence[Dict[str, Any]], title: str) -> str:
    """The bench cells as the aligned table ``repro serve-bench`` prints."""
    rows = [
        [
            cell["mix"],
            cell["concurrency"],
            cell["plans_per_sec"],
            cell["latency_ms"]["p50"],
            cell["latency_ms"]["p99"],
            f"{cell['hit_rate']:.2f}",
        ]
        for cell in cells
    ]
    return format_table(
        ["mix", "conc", "plans/s", "p50 ms", "p99 ms", "hits"],
        rows,
        title=title,
        float_fmt="{:.2f}",
    )
