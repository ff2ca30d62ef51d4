"""Simulation-runtime throughput: batched vs. per-call assignment.

Two scenarios on the runtime fast path (event-kernel tuples, quiescent
heartbeat parking, incremental JobTracker bookkeeping; DESIGN.md §10),
which both sides of the comparison run:

* **yahoo_trace** — the full Yahoo! trace on the paper's 200m+200r cluster
  with a 3 s heartbeat: a busy cluster where launch/complete events
  dominate and rounds fill many slots at once.
* **periodic_200node** — 200 nodes polling every 3 s while a handful of
  long-task chains run: parking sheds almost every tick, so what is left
  is mostly launch/complete work.

Both scenarios run the *same* simulation twice, toggling
``ClusterConfig.batched_assignment`` (DESIGN.md §11).  The decision
streams and event counts are identical by construction (enforced in
tier-1 by ``tests/integration/test_batched_equivalence.py``), so wall
clocks are directly comparable.  Parking has no switch; its
never-parking oracle lives with the tests
(``tests/reference_assignment.py``).

Besides the printed table, the run records a machine-readable
``BENCH_sim_throughput.json`` at the repo root so subsequent PRs have a
perf trajectory to compare against.  The JSON shape is pinned by
``tests/integration/test_bench_sim_throughput_guard.py``.

The measurement test is marked ``perf`` and therefore deselected by the
default ``-m "not perf"`` addopts; run it explicitly with
``pytest benchmarks/bench_sim_throughput.py -m perf``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional, Sequence

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation
from repro.metrics.report import format_table
from repro.schedulers.fifo import FifoScheduler
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.model import Workflow

from benchmarks._helpers import emit, yahoo_trace

#: Trajectory file, kept at the repo root next to the other stock-taking docs.
JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_sim_throughput.json")

#: Hadoop's classic 3-second TaskTracker poll.
HEARTBEAT_INTERVAL = 3.0

#: Keys the guard test pins so the trajectory file cannot silently rot.
SCENARIO_KEYS = ("yahoo_trace", "periodic_200node")
METRIC_KEYS = (
    "reference_wall_s",
    "fast_wall_s",
    "speedup",
    "reference_events",
    "fast_events",
    "reference_events_per_sec",
    "fast_events_per_sec",
    "reference_us_per_event",
    "fast_us_per_event",
)


def periodic_workflows(count: int = 6, task_s: float = 300.0) -> List[Workflow]:
    """Staggered long-task ETL chains: without parking, ticks would dominate."""
    workflows = []
    for i in range(count):
        workflows.append(
            WorkflowBuilder(f"chain{i}")
            .submit_at(float(5 * i))
            .job("extract", maps=8, reduces=4, map_s=task_s, reduce_s=task_s / 1.5)
            .job("transform", maps=6, reduces=2, map_s=task_s, reduce_s=task_s / 1.5,
                 after=["extract"])
            .job("load", maps=4, reduces=1, map_s=task_s / 1.5, reduce_s=task_s / 3,
                 after=["transform"])
            .deadline(relative=20 * task_s)
            .build()
        )
    return workflows


def _measure(
    make_config: Callable[[bool], ClusterConfig],
    workflows: Sequence[Workflow],
    repeats: int,
) -> Dict[str, float]:
    """Best-of-``repeats`` wall clock for one scenario, fast vs. reference.

    Event counts are deterministic across repeats (same seedless decision
    stream), so only the wall clock takes the best-of treatment.
    """
    walls: Dict[str, float] = {}
    events: Dict[str, int] = {}
    for label, fast in (("reference", False), ("fast", True)):
        best = float("inf")
        for _ in range(repeats):
            sim = ClusterSimulation(
                make_config(fast), FifoScheduler(), submission="oozie"
            )
            sim.add_workflows(workflows)
            start = time.perf_counter()
            result = sim.run()
            best = min(best, time.perf_counter() - start)
            events[label] = result.events_processed
        # Tiny scenarios on a coarse clock can measure 0.0 s; clamp so the
        # speedup and events/sec divisions below stay finite.
        walls[label] = max(best, 1e-9)
    return {
        "reference_wall_s": round(walls["reference"], 4),
        "fast_wall_s": round(walls["fast"], 4),
        "speedup": round(walls["reference"] / walls["fast"], 2),
        "reference_events": events["reference"],
        "fast_events": events["fast"],
        "reference_events_per_sec": round(events["reference"] / walls["reference"], 1),
        "fast_events_per_sec": round(events["fast"] / walls["fast"], 1),
        # Per-event cost makes "fewer but slower events" regressions visible:
        # a fast path can shed events yet still lose wall clock if each
        # surviving event pays more scheduler/structure overhead (the
        # ISSUE 7 starting point: 4x fewer events at ~2.7x the unit cost).
        "reference_us_per_event": round(1e6 * walls["reference"] / events["reference"], 3),
        "fast_us_per_event": round(1e6 * walls["fast"] / events["fast"], 3),
    }


def run_bench(
    trace: Optional[Sequence[Workflow]] = None,
    periodic: Optional[Sequence[Workflow]] = None,
    trace_slots: int = 200,
    trace_nodes: int = 40,
    periodic_nodes: int = 200,
    repeats: int = 3,
) -> Dict[str, object]:
    """Measure both scenarios and return the trajectory payload."""
    trace = list(trace) if trace is not None else list(yahoo_trace())
    periodic = list(periodic) if periodic is not None else periodic_workflows()

    def trace_config(fast: bool) -> ClusterConfig:
        return ClusterConfig.from_total_slots(
            trace_slots,
            trace_slots,
            nodes=trace_nodes,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            batched_assignment=fast,
        )

    def periodic_config(fast: bool) -> ClusterConfig:
        return ClusterConfig(
            num_nodes=periodic_nodes,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            batched_assignment=fast,
        )

    scenarios = {
        "yahoo_trace": _measure(trace_config, trace, repeats),
        "periodic_200node": _measure(periodic_config, periodic, repeats),
    }
    return {
        "bench": "sim_throughput",
        "heartbeat_interval": HEARTBEAT_INTERVAL,
        "repeats": repeats,
        "cluster": {"trace_nodes": trace_nodes, "periodic_nodes": periodic_nodes},
        "corpus": {
            "trace_workflows": len(trace),
            "periodic_workflows": len(periodic),
        },
        "scenarios": scenarios,
    }


def write_json(payload: Dict[str, object], path: str = JSON_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.mark.perf
def test_sim_throughput():
    payload = run_bench()
    scenarios = payload["scenarios"]

    rows = [
        [
            name,
            scenarios[name]["reference_wall_s"],
            scenarios[name]["fast_wall_s"],
            scenarios[name]["speedup"],
            scenarios[name]["reference_events"],
            scenarios[name]["fast_events"],
        ]
        for name in SCENARIO_KEYS
    ]
    table = format_table(
        ["scenario", "ref wall s", "fast wall s", "speedup", "ref events", "fast events"],
        rows,
        title=f"Simulation runtime throughput (heartbeat {HEARTBEAT_INTERVAL}s)",
        float_fmt="{:.2f}",
    )
    emit("sim_throughput", table)
    write_json(payload)

    # Batching changes no decision, so it can neither add nor shed events.
    for name in SCENARIO_KEYS:
        assert scenarios[name]["fast_events"] == scenarios[name]["reference_events"]
