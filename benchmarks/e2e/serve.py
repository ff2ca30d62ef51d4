"""The two planning-service workloads: closed-loop HTTP load on a server child.

The service runs in its own process (:mod:`benchmarks.e2e.server`); this
process is the load: one thread, one event loop, :data:`CONNECTIONS`
keep-alive connections, each sending its next ``POST /v1/plan`` only after
the previous response arrived (a WOHA client waits for its plan before it
submits, paper §III steps a-f).  Latency is timed per request from the
write to the last body byte.

``serve-recurrent`` cycles, in a seeded order, through 64 templates whose
plans were primed into the cache during set-up: every request is a hit.
``serve-cold`` gives every request a seeded, unique relative-deadline
stretch in [0, 0.1 %), so every fingerprint misses and the 1024-entry cache
fills and evicts; the bounded stretch keeps planning cost from drifting.

Host CPU speed drifts by 10-40 % over seconds on a shared 2-vCPU VM, so the
timed phase is cut into :data:`WINDOWS` equal spans of wall time and the
end-to-end metrics report the best span: the lowest per-span p50 and the
highest per-span throughput.  The p90 (best span) and the whole-phase
p50/p90/p99 are kept in the result's ``extra`` block but not gated: with
two closed-loop connections 10-30 % of hits queue behind the other
connection's request, a split that varies run to run, and the p90 sits on
the boundary between the two latency modes.

Outputs are checked against the direct planner,
``make_planner("lpf")(workflow, 200).to_bytes()``: every recurrent response,
and a seeded sample of cold responses after the timed phase.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.client import make_planner
from repro.experiments.scenarios import SCENARIOS
from repro.workflow.model import Workflow
from repro.workloads.io import workflows_to_json

from benchmarks.e2e import ROOT, SRC
from benchmarks.e2e.server import TOTAL_SLOTS
from benchmarks.e2e.stats import percentile
from benchmarks.e2e.trace import calls_between, layer_rows, layer_table

CONNECTIONS = 2
#: Set-ups per untraced run (server spawn, priming, warm-up); ``setup_s``
#: is their median.
SETUP_REPEATS = 5
#: Equal spans of the timed phase; each metric reports its best span.
WINDOWS = 8
#: Requests per connection in ``--quick`` runs.
QUICK_REQUESTS = 100
#: Cold responses compared with the direct planner after the timed phase.
CHECK_SAMPLE = 200
#: Each stream (timed and warm-up, per connection) draws its deadline
#: stretches from its own slice of [0, 0.1 %), so no two share one.
_STRETCH_SLICE = 1e-3 / (2 * CONNECTIONS)
_SERVER_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    cold: bool
    #: Warm-up requests per connection at the end of each set-up.
    warmup_requests: int
    #: Requests per connection in the traced phase.
    trace_requests: int
    #: Layers a traced run must reach.
    layers: Tuple[str, ...]


_READ_PATH = ("service.parse", "service.plan", "batching.plan", "plancache.lookup",
              "plancache.fingerprint", "progress.to_bytes")
WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload("serve-recurrent", cold=False, warmup_requests=200,
                      trace_requests=2000, layers=_READ_PATH),
        ServeWorkload("serve-cold", cold=True, warmup_requests=50, trace_requests=400,
                      layers=_READ_PATH + ("batching.flush", "plancache.build",
                                           "capsearch.search", "plangen.sim")),
    )
}
#: ``SCENARIOS["serve"]`` scale for both workloads: 64 templates.
TEMPLATE_SCALE = 16.0


def _request(workflow: Workflow) -> bytes:
    body = workflows_to_json([workflow]).encode("utf-8")
    head = (
        "POST /v1/plan HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


class _Stream:
    """One connection's seeded request sequence.

    Yields ``(key, request bytes)``; the key names the template (recurrent)
    or the template and its stretched deadline (cold).
    """

    def __init__(self, templates: Sequence[Workflow], recurrent: Optional[List[bytes]],
                 seed: int, stream: int) -> None:
        self._templates = templates
        self._recurrent = recurrent
        self._rng = random.Random(seed * 1000 + stream)
        self._low = stream * _STRETCH_SLICE
        self._seen: set = set()

    def next(self) -> Tuple[Any, bytes]:
        index = self._rng.randrange(len(self._templates))
        if self._recurrent is not None:
            return index, self._recurrent[index]
        template = self._templates[index]
        while True:
            stretch = self._low + self._rng.random() * _STRETCH_SLICE
            deadline = template.relative_deadline * (1.0 + stretch)
            if (index, deadline) not in self._seen:
                break
        self._seen.add((index, deadline))
        return (index, deadline), _request(template.with_timing(0.0, deadline))


async def _exchange(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                    request: bytes) -> Tuple[int, bytes]:
    writer.write(request)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split(b" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _sep, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


@dataclass
class _Phase:
    """What one closed-loop phase observed."""

    attempted: int = 0
    start: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: perf_counter() at each latency sample's completion.
    done_at: List[float] = field(default_factory=list)
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: (key, body) of cold responses, for the post-run sample check.
    bodies: List[Tuple[Any, bytes]] = field(default_factory=list)
    wall_s: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


async def _connection(port: int, stream: _Stream, phase: _Phase, stop_at: Optional[float],
                      limit: Optional[int], expected: Optional[List[bytes]]) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    sent = 0
    try:
        while (limit is None or sent < limit) and (stop_at is None or time.perf_counter() < stop_at):
            key, request = stream.next()
            sent += 1
            phase.attempted += 1
            start = time.perf_counter()
            try:
                status, body = await _exchange(reader, writer, request)
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                phase.fail(f"request failed: {type(exc).__name__}: {exc}")
                return
            done = time.perf_counter()
            phase.latencies.append(done - start)
            phase.done_at.append(done)
            if status != 200:
                phase.fail(f"status {status}: {body[:200]!r}")
            elif expected is not None:
                if body != expected[key]:
                    phase.fail(f"template {key}: served plan differs from the direct planner")
            else:
                phase.bodies.append((key, body))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def _drive(port: int, streams: Sequence[_Stream], stop_at: Optional[float],
                 limit: Optional[int], expected: Optional[List[bytes]]) -> _Phase:
    phase = _Phase(start=time.perf_counter())
    await asyncio.gather(*(
        _connection(port, stream, phase, stop_at, limit, expected) for stream in streams
    ))
    phase.wall_s = time.perf_counter() - phase.start
    return phase


def _best_span(phase: _Phase, spans: int) -> Dict[str, Tuple[Optional[float], Optional[str]]]:
    """The best per-span p50, p90 and throughput over ``spans`` equal spans."""
    width = phase.wall_s / spans
    buckets: List[List[float]] = [[] for _ in range(spans)]
    for done, latency in zip(phase.done_at, phase.latencies):
        buckets[min(spans - 1, int((done - phase.start) / width))].append(latency)
    best: Dict[str, Tuple[Optional[float], Optional[str]]] = {}
    for pct in (50, 90):
        values = [percentile(bucket, pct) for bucket in buckets]
        measured = [value for value, _reason in values if value is not None]
        best[f"latency_ms_p{pct}"] = (
            (min(measured) * 1e3, None) if measured
            else (None, f"no span qualifies: {values[0][1]}")
        )
    best["throughput_per_s"] = (max(len(bucket) for bucket in buckets) / width, None)
    return best


async def _stats(port: int) -> Dict[str, Any]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        status, body = await _exchange(
            reader, writer, b"GET /v1/stats HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    if status != 200:
        raise RuntimeError(f"GET /v1/stats answered {status}")
    return json.loads(body)


class _Server:
    """A running :mod:`benchmarks.e2e.server` child process."""

    def __init__(self, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.server"] + (["--trace"] if trace else []),
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            self.port = int(self._read()["port"])
        except BaseException:
            self.kill()
            raise

    def _read(self) -> Dict[str, Any]:
        ready, _, _ = select.select([self.proc.stdout], [], [], _SERVER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(f"server process gave no answer (exit code {self.proc.poll()})")
        return json.loads(line)

    def command(self, command: str) -> Dict[str, Any]:
        self.proc.stdin.write(command.encode("ascii") + b"\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> Dict[str, Any]:
        """Stop the server; returns its report (peak RSS, spans)."""
        try:
            report = self.command("stop")
            self.proc.wait(timeout=_SERVER_TIMEOUT_S)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


class _Priming:
    """Every template once, in order: the cache-priming pass."""

    def __init__(self, requests: List[bytes]) -> None:
        self._requests = requests
        self._next = 0

    def next(self) -> Tuple[Any, bytes]:
        index = self._next
        self._next += 1
        return index, self._requests[index]


class _Load:
    """A workload's templates, reference plans and request streams."""

    def __init__(self, workload: ServeWorkload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.templates = SCENARIOS["serve"](seed, TEMPLATE_SCALE)[0]
        self.planner = make_planner("lpf")
        self.recurrent: Optional[List[bytes]] = None
        self.expected: Optional[List[bytes]] = None
        if not workload.cold:
            self.recurrent = [_request(t) for t in self.templates]
            self.expected = [self.planner(t, TOTAL_SLOTS).to_bytes() for t in self.templates]

    def streams(self, first: int) -> List[_Stream]:
        return [_Stream(self.templates, self.recurrent, self.seed, first + c)
                for c in range(CONNECTIONS)]

    async def start(self, trace: bool, quick: bool) -> _Server:
        """Spawn a server, prime its cache (recurrent) and warm it up."""
        server = _Server(trace)
        try:
            if self.recurrent is not None:
                primed = await _drive(server.port, [_Priming(self.recurrent)], None,
                                      len(self.recurrent), self.expected)
                if primed.failed:
                    raise RuntimeError(f"priming failed: {primed.errors}")
            warm = await _drive(server.port, self.streams(CONNECTIONS), None,
                                10 if quick else self.workload.warmup_requests, self.expected)
            if warm.failed:
                raise RuntimeError(f"warm-up failed: {warm.errors}")
        except BaseException:
            server.kill()
            raise
        return server

    def check_sample(self, phase: _Phase) -> None:
        """Compare a seeded sample of cold responses with the direct planner."""
        sample = random.Random(self.seed).sample(phase.bodies, min(CHECK_SAMPLE, len(phase.bodies)))
        for (index, deadline), body in sample:
            workflow = self.templates[index].with_timing(0.0, deadline)
            if body != self.planner(workflow, TOTAL_SLOTS).to_bytes():
                phase.fail(f"template {index} at deadline {deadline!r}: served plan differs "
                           "from the direct planner")


async def _run_untraced(workload: ServeWorkload, seed: int, seconds: float,
                        quick: bool) -> Dict[str, Any]:
    load = _Load(workload, seed)
    setups: List[float] = []
    server: Optional[_Server] = None
    try:
        for _ in range(1 if quick else SETUP_REPEATS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = await load.start(trace=False, quick=quick)
            setups.append(time.perf_counter() - start)
        stop_at = None if quick else time.perf_counter() + seconds
        phase = await _drive(server.port, load.streams(0), stop_at,
                             QUICK_REQUESTS if quick else None, load.expected)
        report = server.stop()
    finally:
        if server is not None:
            server.kill()
    if workload.cold:
        load.check_sample(phase)
    best = _best_span(phase, 1 if quick else WINDOWS)
    whole = {f"latency_ms_p{pct}": percentile(phase.latencies, pct) for pct in (50, 90, 99)}
    gated = ("latency_ms_p50", "throughput_per_s")
    return {
        "attempted": phase.attempted,
        "failed": phase.failed,
        "errors": phase.errors,
        "metrics": {
            **{name: best[name][0] for name in gated},
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["maxrss_kb"] / 1024.0,
        },
        "reasons": {name: best[name][1] for name in gated if best[name][1]},
        "samples": {"latency": len(phase.latencies), "spans": 1 if quick else WINDOWS,
                    "setup": len(setups)},
        # Not gated: the tail and the whole-phase values, for reference.
        "extra": {
            "best_span": {"latency_ms_p90": best["latency_ms_p90"][0]},
            "whole_phase": {
                **{name: None if value is None else value * 1e3
                   for name, (value, _reason) in whole.items()},
                "throughput_per_s": len(phase.latencies) / phase.wall_s,
            },
        },
        "outputs": {"templates": len(load.templates)},
    }


def _delta(before: Dict[str, Any], after: Dict[str, Any], section: str, key: str) -> float:
    return after.get(section, {}).get(key, 0) - before.get(section, {}).get(key, 0)


def _per_layer(snapshot, layers, before, after, latencies: List[float]) -> Dict[str, float]:
    requests = len(latencies)

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    def total(layer: str) -> float:
        return layers.get(layer, {}).get("total_s", 0.0)

    def per_call(layer: str) -> float:
        return 1e6 * total(layer) / calls(layer) if calls(layer) else 0.0

    latency_us = 1e6 * statistics.fmean(latencies)
    outside_us = latency_us - 1e6 * (
        total("service.parse") + total("service.plan") + total("progress.to_bytes")
    ) / requests
    plan = layers.get("batching.plan", {})
    counts, elapsed = plan.get("outcomes", {}), plan.get("elapsed_s", {})
    hits = counts.get("hit", 0)
    misses = sum(n for outcome, n in counts.items() if outcome != "hit")
    miss_us = 1e6 * sum(t for o, t in elapsed.items() if o != "hit") / misses if misses else 0.0
    batched = _delta(before, after, "batch", "batched_requests")
    batches = _delta(before, after, "batch", "batches")
    cache_hits = _delta(before, after, "plan_cache", "hits")
    cache_lookups = cache_hits + _delta(before, after, "plan_cache", "misses")
    searches = calls("capsearch.search")
    metrics = {
        "api.outside_service_us": outside_us,
        "service.parse.us": per_call("service.parse"),
        "service.plan.us": per_call("service.plan"),
        "batching.plan.hit_us": 1e6 * elapsed.get("hit", 0.0) / hits if hits else 0.0,
        "batching.plan.miss_us": miss_us,
        "batching.wait_us": miss_us - 1e6 * total("batching.flush") / batched if batched else 0.0,
        "batching.flush.us": per_call("batching.flush"),
        "batching.batch_size": batched / batches if batches else 0.0,
        "batching.fused_ratio": (
            _delta(before, after, "batch", "fused") + _delta(before, after, "batch", "shared_setups")
        ) / batched if batched else 0.0,
        "plancache.lookup.us": per_call("plancache.lookup"),
        "plancache.fingerprint.us": per_call("plancache.fingerprint"),
        "plancache.build.us": per_call("plancache.build"),
        "plancache.hit_ratio": cache_hits / cache_lookups if cache_lookups else 0.0,
        "plancache.evictions": _delta(before, after, "plan_cache", "evictions"),
        "capsearch.search.calls": searches,
        "capsearch.search.us": per_call("capsearch.search"),
        "capsearch.probes_per_search": (
            calls_between(snapshot, "find_min_cap", "_SimProblem.run") / searches
            if searches else 0.0
        ),
        "plangen.sim.calls": calls("plangen.sim"),
        "plangen.sim.us": per_call("plangen.sim"),
        "progress.to_bytes.us": per_call("progress.to_bytes"),
        "trace.unattributed_share": outside_us / latency_us,
    }
    return metrics


async def _run_traced(workload: ServeWorkload, seed: int, quick: bool) -> Dict[str, Any]:
    load = _Load(workload, seed)
    per_connection = QUICK_REQUESTS if quick else workload.trace_requests
    server = await load.start(trace=False, quick=quick)
    try:
        untraced = await _drive(server.port, load.streams(0), None, per_connection, load.expected)
        server.stop()
        server = await load.start(trace=True, quick=quick)
        server.command("reset")
        before = await _stats(server.port)
        traced = await _drive(server.port, load.streams(0), None, per_connection, load.expected)
        after = await _stats(server.port)
        report = server.stop()
    finally:
        server.kill()
    if workload.cold:
        load.check_sample(untraced)
        load.check_sample(traced)
    snapshot = report["spans"]
    layers = layer_table(snapshot)
    metrics = _per_layer(snapshot, layers, before, after, traced.latencies)
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    return {
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "errors": untraced.errors + traced.errors,
        "metrics": metrics,
        "absent": report["absent"],
        "expected_layers": list(workload.layers),
        "layers": layer_rows(layers, sum(traced.latencies)),
        "stats": {"before": before, "after": after},
        "spans": snapshot,
    }


def run_untraced(workload: ServeWorkload, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """Set up (spawn, prime, warm), drive the load for ``seconds``, check."""
    return asyncio.run(_run_untraced(workload, seed, seconds, quick))


def run_traced(workload: ServeWorkload, seed: int, quick: bool) -> Dict[str, Any]:
    """Drive the first requests untraced, then again against a traced server."""
    return asyncio.run(_run_traced(workload, seed, quick))
