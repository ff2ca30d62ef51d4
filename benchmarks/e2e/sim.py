"""The two cluster-simulation workloads: seeded WOHA runs, timed per run.

Each workload generates a pool of 100 scenario instances from the seed
(instance ``i`` uses scenario seed ``seed * 10000 + i``) and runs the pool
in passes, at least :data:`MIN_PASSES` of them and more while ``--seconds``
last.  One *operation* is one complete simulation: building a
``ClusterSimulation`` with ``WohaScheduler`` and ``make_planner("lpf")``,
submitting the instance's workflows and running to completion.

An instance's time is the best of its passes.  The host's CPU speed drifts
by 10-40 % over seconds (the same run measured 67-176 ms on a shared 2-core
VM); passes put each instance's repetitions seconds apart, so the best
one is rarely disturbed.  The p50 (and the ungated p90) are taken over the
instances' best times; throughput is instances over their summed best.

Outputs are checked on every run: every workflow completes and every task
(submitter tasks included) launches and completes exactly once; a rerun of
a pool instance reproduces its first outcome; and the SHA-256 of the first
runs' outcomes matches ``expected_outputs.json`` where a seed is recorded.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation, SimulationResult
from repro.core.client import make_planner
from repro.core.scheduler import WohaScheduler
from repro.experiments.scenarios import SCENARIOS
from repro.workflow.model import Workflow

from benchmarks.e2e import ROOT
from benchmarks.e2e.stats import percentile
from benchmarks.e2e.trace import (
    EntryPoint, Tracer, calls_between, install, layer_rows, layer_table,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Passes over the pool before the clock may stop the run.
MIN_PASSES = 3
#: Runs covered by the traced phase and by the outputs digest.
TRACE_RUNS = 20
QUICK_RUNS = 2
EXPECTED_PATH = ROOT / "benchmarks" / "e2e" / "expected_outputs.json"


@dataclass(frozen=True)
class SimWorkload:
    name: str
    scenario: str
    scale: float
    nodes: int
    map_slots: int
    reduce_slots: int
    #: Distinct instances per seed: ten of them lie beyond the p90.
    pool: int = 100

    def config(self) -> ClusterConfig:
        return ClusterConfig(
            num_nodes=self.nodes,
            map_slots_per_node=self.map_slots,
            reduce_slots_per_node=self.reduce_slots,
            heartbeat_interval=3.0,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # 15 Yahoo-fitted workflows on a contended 100-slot cluster:
        # Algorithm 2 selection, the DSL and the collector carry the cost.
        SimWorkload("sim-yahoo", "yahoo", 0.25, nodes=10, map_slots=5, reduce_slots=5),
        # 6 long-task ETL chains on a large, mostly idle cluster: heartbeat
        # ticks and the event kernel carry the cost, the scheduler little.
        SimWorkload("sim-periodic", "periodic", 1.0, nodes=500, map_slots=2, reduce_slots=1),
    )
}


def _tracker_free(tracker) -> int:
    return tracker.free_map_slots + tracker.free_reduce_slots


def _select_outcome(_state, _args, result) -> str:
    return "idle" if result is None else "task"


def _select_batch_outcome(_state, args, result) -> str:
    return "idle" if result < args[3] else "task"  # args: self, kind, now, limit, launch


def _tick_outcome(before: int, args, _result) -> str:
    return "useful" if _tracker_free(args[1]) < before else "idle"


def _tick(attr: str, **kw) -> EntryPoint:
    return EntryPoint("jobtracker.tick", "repro.cluster.jobtracker", attr, **kw)


#: Entry points wrapped in traced simulation runs, by layer.  The batched
#: variants are listed so the breakdown survives a switch of default path.
SIM_ENTRIES: List[EntryPoint] = [
    EntryPoint("events", "repro.events", "Simulator.run"),
    _tick("JobTracker._heartbeat_tick", before=lambda args: _tracker_free(args[1]),
          outcome=_tick_outcome),
    _tick("JobTracker.heartbeat"),
    _tick("JobTracker._heartbeat_batched"),
    EntryPoint("jobtracker.round", "repro.cluster.jobtracker", "JobTracker.schedule_round"),
    EntryPoint("jobtracker.round", "repro.cluster.jobtracker", "JobTracker._round_batched"),
    EntryPoint("jobtracker.launch", "repro.cluster.jobtracker", "JobTracker._launch"),
    EntryPoint("jobtracker.complete", "repro.cluster.jobtracker", "JobTracker._complete_task"),
    EntryPoint("jobtracker.submit", "repro.cluster.jobtracker", "JobTracker.submit_workflow"),
    EntryPoint("jobtracker.submit", "repro.cluster.jobtracker", "JobTracker.submit_wjob"),
    EntryPoint("scheduler.select", "repro.core.scheduler", "WohaScheduler.select_task",
               outcome=_select_outcome),
    EntryPoint("scheduler.select", "repro.core.scheduler", "WohaScheduler.select_tasks",
               outcome=_select_batch_outcome),
    *[
        EntryPoint("dsl.op", "repro.structures.dsl", f"DoubleSkipList.{op}")
        for op in ("insert", "remove", "update_head_ct", "update_priority", "update_ct",
                   "head_by_ct", "head_by_priority")
    ],
    EntryPoint("collector.hook", "repro.metrics.collector", "MetricsCollector.on_task_launch"),
    EntryPoint("collector.hook", "repro.metrics.collector", "MetricsCollector.on_task_complete"),
    EntryPoint("capsearch.search", "repro.core.client", "find_min_cap"),
    EntryPoint("plangen.sim", "repro.core.plangen", "_SimProblem.run"),
]

#: Layers a traced simulation run must reach; the root span is the run.
SIM_LAYERS = (
    "events", "jobtracker.tick", "jobtracker.round", "jobtracker.launch",
    "jobtracker.complete", "jobtracker.submit", "scheduler.select", "dsl.op",
    "collector.hook", "planner", "capsearch.search", "plangen.sim",
)


class IncorrectOutput(Exception):
    """A simulation outcome that breaks an invariant of the run."""


class _Checks:
    """Failed runs and what failed in them."""

    def __init__(self) -> None:
        self.errors: List[str] = []
        self.failed: set = set()

    def fail(self, runs: Sequence[int], message: str) -> None:
        self.failed.update(runs)
        self.errors.append(message)

    def outcome(self, run: int, workflows: Sequence[Workflow], result: SimulationResult) -> Optional[str]:
        try:
            return _outcome(workflows, result)
        except IncorrectOutput as exc:
            self.fail([run], f"run {run}: {exc}")
            return None

    def digest(self, workload: "SimWorkload", seed: int, lines: Sequence[Optional[str]],
               quick: bool) -> str:
        """SHA-256 of the outcome lines, checked against the recorded one."""
        digest = hashlib.sha256("\n".join(line or "" for line in lines).encode("utf-8")).hexdigest()
        if not quick:
            with open(EXPECTED_PATH) as fh:
                expected = json.load(fh).get(workload.name, {}).get(str(seed))
            if expected is not None and digest != expected:
                self.fail(range(len(lines)), f"outputs_sha256 {digest} differs from the recorded {expected}")
        return digest


def _simulate(config: ClusterConfig, workflows: Sequence[Workflow], planner: Callable) -> SimulationResult:
    simulation = ClusterSimulation(config, WohaScheduler(), submission="woha", planner=planner)
    simulation.add_workflows(workflows)
    return simulation.run()


def _outcome(workflows: Sequence[Workflow], result: SimulationResult) -> str:
    """The run's outcome line: per-workflow completion, makespan, launches."""
    stats = result.stats
    if sorted(stats) != sorted(w.name for w in workflows):
        raise IncorrectOutput("submitted and reported workflows differ")
    unfinished = [name for name, s in stats.items() if not math.isfinite(s.completion_time)]
    if unfinished:
        raise IncorrectOutput(f"workflows never completed: {unfinished[:3]}")
    # Every wjob task plus one submitter task per wjob runs exactly once.
    tasks = sum(w.total_tasks + len(w.jobs) for w in workflows)
    metrics = result.metrics
    if metrics.tasks_launched != tasks or metrics.tasks_completed != tasks:
        raise IncorrectOutput(
            f"{metrics.tasks_launched} launched / {metrics.tasks_completed} completed, "
            f"expected {tasks}"
        )
    times = ";".join(f"{name}={stats[name].completion_time!r}" for name in sorted(stats))
    return f"{times}|{result.makespan!r}|{metrics.tasks_launched}"


def _pool(workload: SimWorkload, seed: int, size: int) -> List[List[Workflow]]:
    make = SCENARIOS[workload.scenario]
    return [make(seed * 10000 + i, workload.scale)[0] for i in range(size)]


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3


def run_untraced(workload: SimWorkload, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """Set up, time passes over the pool for ``seconds``, check outputs."""
    pool_size = QUICK_RUNS if quick else workload.pool
    config = workload.config()
    setups: List[float] = []
    for _ in range(1 if quick else SETUP_REPEATS):
        start = time.perf_counter()
        pool = _pool(workload, seed, pool_size)
        planner = make_planner("lpf")
        warm = _simulate(config, pool[0], planner)
        setups.append(time.perf_counter() - start)
    checks = _Checks()
    first_pass: List[Optional[str]] = []
    miss: List[float] = []
    tardiness: List[float] = []
    times: List[List[float]] = [[] for _ in pool]
    min_runs = pool_size * (1 if quick else MIN_PASSES)
    run = 0
    stop_at = time.perf_counter() + (0.0 if quick else seconds)
    while run < min_runs or time.perf_counter() < stop_at:
        index = run % pool_size
        workflows = pool[index]
        start = time.perf_counter()
        result = _simulate(config, workflows, planner)
        times[index].append(time.perf_counter() - start)
        line = checks.outcome(run, workflows, result)
        if run < pool_size:
            first_pass.append(line)
            miss.append(result.miss_ratio)
            tardiness.append(result.total_tardiness)
        elif line != first_pass[index]:
            checks.fail([run], f"run {run}: outcome differs from run {index} on the same input")
        run += 1
    if checks.outcome(0, pool[0], warm) != first_pass[0]:
        checks.fail([0], "run 0: outcome differs from the warm-up run on the same input")
    digest_runs = min(TRACE_RUNS, pool_size)
    digest = checks.digest(workload, seed, first_pass[:digest_runs], quick)
    best = [min(t) for t in times]
    p50, p50_reason = percentile(best, 50)
    p90, p90_reason = percentile(best, 90)
    return {
        "attempted": run,
        "failed": len(checks.failed),
        "errors": checks.errors,
        "metrics": {
            "latency_ms_p50": _ms(p50),
            "throughput_per_s": len(best) / sum(best),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "reasons": {"latency_ms_p50": p50_reason} if p50_reason else {},
        "samples": {"latency": len(best), "runs": run, "setup": len(setups)},
        # Not gated (the serve workloads cannot gate a stable tail), kept
        # for reference with the same percentile rule.
        "extra": {"latency_ms_p90": _ms(p90), **({"latency_ms_p90_reason": p90_reason}
                                                 if p90_reason else {})},
        "outputs": {
            "deadline_miss_ratio": statistics.fmean(miss),
            "tardiness_s": statistics.fmean(tardiness),
            "outputs_sha256": digest,
            "runs_in_digest": digest_runs,
        },
    }


def _per_layer(snapshot, layers, events: int, root_total: float) -> Dict[str, float]:
    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    def per_call(layer: str, key: str) -> float:
        n = calls(layer)
        return 1e6 * layers[layer][key] / n if n else 0.0

    def share(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0) / root_total if root_total else 0.0

    def ratio(layer: str, outcome: str) -> float:
        n = calls(layer)
        return layers[layer]["outcomes"].get(outcome, 0) / n if n else 0.0

    searches = calls("capsearch.search")
    metrics = {
        "events.count": events,
        "events.self_us_per_event": 1e6 * layers.get("events", {}).get("self_s", 0.0) / events
        if events else 0.0,
        "jobtracker.tick.useful_ratio": ratio("jobtracker.tick", "useful"),
        "scheduler.select.idle_ratio": ratio("scheduler.select", "idle"),
        "capsearch.probes_per_search": (
            calls_between(snapshot, "find_min_cap", "_SimProblem.run") / searches
            if searches else 0.0
        ),
        "trace.unattributed_share": share("root"),
    }
    for layer in ("jobtracker.tick", "jobtracker.round", "scheduler.select", "dsl.op",
                  "collector.hook", "planner", "capsearch.search", "plangen.sim"):
        metrics[f"{layer}.calls"] = calls(layer)
    for layer in ("jobtracker.tick", "jobtracker.round", "jobtracker.launch",
                  "jobtracker.complete", "scheduler.select"):
        metrics[f"{layer}.self_us"] = per_call(layer, "self_s")
    for layer in ("dsl.op", "collector.hook", "planner", "capsearch.search", "plangen.sim"):
        metrics[f"{layer}.us"] = per_call(layer, "total_s")
    for layer in ("events", "jobtracker.tick", "jobtracker.round", "jobtracker.launch",
                  "jobtracker.complete", "scheduler.select", "dsl.op", "collector.hook",
                  "planner"):
        metrics[f"{layer}.self_share"] = share(layer)
    return metrics


def run_traced(workload: SimWorkload, seed: int, quick: bool) -> Dict[str, Any]:
    """Time the first runs untraced, then again under the span wrappers."""
    runs = QUICK_RUNS if quick else TRACE_RUNS
    config = workload.config()
    pool = _pool(workload, seed, runs)
    planner = make_planner("lpf")
    _simulate(config, pool[0], planner)  # warm-up
    checks = _Checks()
    untraced: List[Optional[str]] = []
    start = time.perf_counter()
    for run, workflows in enumerate(pool):
        untraced.append(checks.outcome(run, workflows, _simulate(config, workflows, planner)))
    untraced_wall = time.perf_counter() - start

    tracer = Tracer()
    installation = install(tracer, SIM_ENTRIES)
    try:
        traced_planner = tracer.wrap("planner", "planner", planner)
        root = tracer.wrap("run", "root", _simulate)
        start = time.perf_counter()
        results = [root(config, workflows, traced_planner) for workflows in pool]
        traced_wall = time.perf_counter() - start
    finally:
        installation.uninstall()
    traced = [checks.outcome(run, w, r) for run, (w, r) in enumerate(zip(pool, results))]
    for run, (a, b) in enumerate(zip(untraced, traced)):
        if a != b:
            checks.fail([run], f"run {run}: tracing changed the outcome")
    events = sum(result.events_processed for result in results)
    digest = checks.digest(workload, seed, traced, quick)
    snapshot = tracer.snapshot()
    layers = layer_table(snapshot)
    root_total = layers.get("root", {}).get("total_s", 0.0)
    metrics = _per_layer(snapshot, layers, events, root_total)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    return {
        "attempted": runs,
        "failed": len(checks.failed),
        "errors": checks.errors,
        "metrics": metrics,
        "outputs": {"outputs_sha256": digest, "runs_in_digest": runs},
        "absent": installation.absent,
        "expected_layers": list(SIM_LAYERS),
        "layers": layer_rows(layers, root_total),
        "spans": snapshot,
    }

