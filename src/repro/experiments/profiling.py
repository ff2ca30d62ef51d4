"""Profile-guided hot-path inspection: the ``repro profile`` subcommand.

Runs one deterministic scenario from :mod:`repro.experiments.scenarios`
under :mod:`cProfile` and renders the top-N functions by cumulative or
internal time, together with the run's per-event cost (µs/event).  This is
the workflow that produced the per-event micro-kernel: the per-event fast
path is only as good as the *unit* cost of the events that survive
parking/batching, and cProfile is how those unit costs get attributed to
``select_task`` / skip-list walks / heartbeat dispatch rather than guessed.
The ``serve`` scenario profiles the planning service's request path
instead of a cluster run.

The workload is a pure function of ``(scenario, seed, scale)`` — the same
contract the sharded runner relies on — so two profiles of the same cell
differ only in timings, never in call counts or decision streams.

Wall-clock reads live here by design (the module *measures*; it is not a
decision path), each under an explicit DT102 allow.
"""

from __future__ import annotations

import asyncio
import cProfile
import os
import pstats
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.failures import FailureSchedule
from repro.cluster.simulation import ClusterSimulation
from repro.experiments.scenarios import SCENARIOS
from repro.metrics.report import format_table
from repro.registry import make_stack
from repro.workflow.model import Workflow

__all__ = ["ProfileReport", "profile_scenario"]


@dataclass
class ProfileReport:
    """One profiled run: headline numbers plus the rendered hot-spot table."""

    scenario: str
    scheduler: str
    seed: int
    scale: float
    nodes: int
    wall_s: float
    events: int
    us_per_event: float
    rows: List[Tuple[str, int, float, float, float]]
    """(location, calls, tottime s, cumtime s, tottime µs/event) top-N."""

    def render(self) -> str:
        table = format_table(
            ["function", "calls", "tot s", "cum s", "tot µs/event"],
            [list(row) for row in self.rows],
            title=(
                f"top {len(self.rows)} by "
                f"{'cumulative' if self._sorted_cumulative else 'internal'} time"
            ),
            float_fmt="{:.4f}",
        )
        head = (
            f"profile: scenario={self.scenario} scheduler={self.scheduler} "
            f"seed={self.seed} scale={self.scale:g} nodes={self.nodes}\n"
            f"events={self.events} wall={self.wall_s:.3f}s "
            f"({self.us_per_event:.1f} µs/event under the profiler)\n"
        )
        return head + table

    # Rendering detail only; set by profile_scenario.
    _sorted_cumulative: bool = True


def _short_location(func: Tuple[str, int, str]) -> str:
    """``(file, line, name)`` -> ``name (pkg/module.py:line)``."""
    filename, line, name = func
    if filename == "~":  # builtins have no file
        return name
    parts = filename.replace(os.sep, "/").split("/")
    tail = "/".join(parts[-2:]) if len(parts) >= 2 else parts[-1]
    return f"{name} ({tail}:{line})"


def _hot_rows(
    profiler: cProfile.Profile, events: int, top: int, sort: str
) -> List[Tuple[str, int, float, float, float]]:
    """The top-N (location, calls, tot, cum, µs/event) rows of a profile."""
    stats = pstats.Stats(profiler)
    entries = [
        (func, calls, tottime, cumtime)
        for func, (_cc, calls, tottime, cumtime, _callers) in stats.stats.items()
    ]
    key = (lambda e: e[3]) if sort == "cumulative" else (lambda e: e[2])
    entries.sort(key=key, reverse=True)
    return [
        (
            _short_location(func),
            calls,
            round(tottime, 4),
            round(cumtime, 4),
            round(1e6 * tottime / events, 4) if events else 0.0,
        )
        for func, calls, tottime, cumtime in entries[:top]
    ]


def _jittered(template: Workflow, ordinal: int, total: int) -> Workflow:
    """A copy whose *relative* deadline is unique to ``ordinal`` of ``total``.

    The jitter is a tiny deterministic stretch, ``ordinal / (total * 1000)``
    — below 0.1% for every ``ordinal < total`` — enough to change the cache
    fingerprint without changing feasibility, so every cold request is a
    genuine miss on a shared structure.
    """
    base = template.relative_deadline
    assert base is not None
    return template.with_timing(
        submit_time=0.0, deadline=base * (1.0 + ordinal / (total * 1000.0))
    )


def _profile_serve(seed: int, scale: float, nodes: int, top: int, sort: str) -> ProfileReport:
    """The ``serve`` scenario: profile the batching planner, not a cluster.

    Drives a deterministic request stream straight into
    :meth:`~repro.serve.service.PlanningService.plan` — ``nodes`` synthetic
    tenants per round, alternating recurrent template requests with
    cold (deadline-jittered) ones, ``max(2, round(20 * scale))`` rounds —
    so cProfile attributes cost to the flush/fusion path itself.  An
    *event* is one served plan request.
    """
    from repro.serve.service import PlanningService, ServiceConfig

    templates = [
        w for w in SCENARIOS["serve"](seed, scale)[0] if w.relative_deadline is not None
    ]
    tenants = max(2, nodes)
    rounds = max(2, round(20 * scale))
    service = PlanningService(ServiceConfig(total_slots=200))

    schedule = []
    for r in range(rounds):
        burst = []
        for t in range(tenants):
            template = templates[(r + t) % len(templates)]
            if t % 2:  # odd tenants go cold: unique relative deadline
                template = _jittered(template, r * tenants + t, rounds * tenants)
            burst.append((f"tenant{t:02d}", template))
        schedule.append(burst)

    async def drive() -> None:
        for burst in schedule:
            await asyncio.gather(
                *(service.plan(w, tenant=name) for name, w in burst)
            )

    profiler = cProfile.Profile()
    start = time.perf_counter()  # repro: allow[DT102] - measurement, not a decision input
    profiler.enable()
    try:
        asyncio.run(drive())
    finally:
        profiler.disable()
    wall = time.perf_counter() - start  # repro: allow[DT102] - measurement, not a decision input

    events = service.requests
    report = ProfileReport(
        scenario="serve",
        scheduler="planning-service",
        seed=seed,
        scale=scale,
        nodes=tenants,
        wall_s=round(wall, 4),
        events=events,
        us_per_event=round(1e6 * wall / events, 3) if events else 0.0,
        rows=_hot_rows(profiler, events, top, sort),
    )
    report._sorted_cumulative = sort == "cumulative"
    return report


def profile_scenario(
    scenario: str,
    scheduler: str = "woha-lpf",
    seed: int = 0,
    scale: float = 0.25,
    nodes: int = 8,
    heartbeat: float = 3.0,
    top: int = 15,
    sort: str = "cumulative",
) -> ProfileReport:
    """Profile one scenario run; returns the report (pure of global state).

    The cluster runs with :class:`~repro.cluster.config.ClusterConfig`'s
    default assignment path, the one ``repro simulate``, the sweep runner
    and the benchmarks take, so the profile charges cost where those runs
    spend it.  The ``serve`` scenario is special-cased: it profiles the
    planning *service* request path (:func:`_profile_serve`) instead of a
    cluster run.
    """
    if sort not in ("cumulative", "tottime"):
        raise ValueError(f"sort must be 'cumulative' or 'tottime', got {sort!r}")
    if top <= 0:
        raise ValueError(f"top must be positive, got {top}")
    try:
        make_scenario = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; pick from {sorted(SCENARIOS)}"
        ) from None
    if scenario == "serve":
        return _profile_serve(seed, scale, nodes, top, sort)
    workflows, outages = make_scenario(seed, scale)
    scheduler_obj, mode, planner = make_stack(scheduler)
    config = ClusterConfig(
        num_nodes=nodes,
        heartbeat_interval=heartbeat if heartbeat > 0 else float("inf"),
    )
    sim = ClusterSimulation(config, scheduler_obj, submission=mode, planner=planner)
    sim.add_workflows(workflows)
    if outages:
        FailureSchedule(tuple(outages)).apply(sim.sim, sim.jobtracker)

    profiler = cProfile.Profile()
    start = time.perf_counter()  # repro: allow[DT102] - measurement, not a decision input
    profiler.enable()
    try:
        result = sim.run()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start  # repro: allow[DT102] - measurement, not a decision input

    events = result.events_processed
    rows = _hot_rows(profiler, events, top, sort)
    report = ProfileReport(
        scenario=scenario,
        scheduler=scheduler,
        seed=seed,
        scale=scale,
        nodes=nodes,
        wall_s=round(wall, 4),
        events=events,
        us_per_event=round(1e6 * wall / events, 3) if events else 0.0,
        rows=rows,
    )
    report._sorted_cumulative = sort == "cumulative"
    return report
