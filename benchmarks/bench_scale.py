"""Scale-out bench tier: cluster-size sweep and sharded-runner sweep.

Two sweeps, matching the two scale axes ISSUE 6 adds:

* **cluster sweep** — one 500+-workflow workload simulated on clusters of
  500, 1000 and 2000 TaskTrackers with batched assignment on and the
  periodic heartbeat loop off (eager rounds drive every assignment):
  events/sec and wall clock vs. cluster size.
* **worker sweep** — one experiment grid run through
  :func:`repro.experiments.runner.run_grid` at 0 (inline), 1, 2 and 4
  worker processes: wall clock vs. worker count, plus the hard invariant
  that every sharded payload is byte-identical to the sequential run.
  (This container may be single-core, so the sweep's claim is equality and
  overhead accounting, never a parallel speedup.)

Besides the printed tables the run records ``BENCH_scale.json`` at the
repo root; its shape is pinned in tier-1 by
``tests/integration/test_bench_scale_guard.py`` on a toy grid.

The measurement test is marked ``perf`` and deselected by the default
``-m "not perf"`` addopts; run it explicitly with
``pytest benchmarks/bench_scale.py -m perf``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Sequence

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation
from repro.experiments.runner import ExperimentCell, run_grid
from repro.experiments.scenarios import periodic_scenario
from repro.metrics.report import format_table
from repro.schedulers.fifo import FifoScheduler

from benchmarks._helpers import emit

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_scale.json")

#: Metric keys pinned per cluster-sweep entry.
CLUSTER_METRIC_KEYS = ("wall_s", "events", "events_per_sec", "makespan", "utilization")
#: Metric keys pinned per worker-sweep entry.
WORKER_METRIC_KEYS = ("wall_s", "cells", "matches_sequential")

#: The full tier's parameters (the guard runs a toy version of the same code).
FULL_NODE_SIZES = (500, 1000, 2000)
FULL_WORKFLOWS = 504
FULL_WORKER_COUNTS = (0, 1, 2, 4)


def scale_workload(count: int, seed: int = 11):
    """``count`` staggered ETL chains (the periodic scenario, scaled)."""
    workflows, _ = periodic_scenario(seed, scale=count / 6.0)
    return workflows


def cluster_sweep(
    node_sizes: Sequence[int],
    workflow_count: int,
    repeats: int,
) -> Dict[str, Dict[str, float]]:
    """Best-of-``repeats`` wall clock of one workload vs. cluster size."""
    workflows = scale_workload(workflow_count)
    sweep: Dict[str, Dict[str, float]] = {}
    for nodes in node_sizes:
        best = float("inf")
        result = None
        for _ in range(repeats):
            config = ClusterConfig(
                num_nodes=nodes,
                heartbeat_interval=float("inf"),
                batched_assignment=True,
            )
            sim = ClusterSimulation(config, FifoScheduler())
            sim.add_workflows(workflows)
            start = time.perf_counter()
            result = sim.run()
            best = min(best, time.perf_counter() - start)
        best = max(best, 1e-9)
        sweep[f"nodes_{nodes}"] = {
            "wall_s": round(best, 4),
            "events": result.events_processed,
            "events_per_sec": round(result.events_processed / best, 1),
            "makespan": round(result.makespan, 1),
            "utilization": round(result.utilization, 4),
        }
    return sweep


def sweep_grid(seeds: Sequence[int] = (0, 1), scale: float = 0.5) -> List[ExperimentCell]:
    """The worker sweep's grid: scenarios x schedulers x seeds."""
    return [
        ExperimentCell(scenario, scheduler, seed=seed, nodes=32, scale=scale)
        for scenario in ("periodic", "yahoo")
        for scheduler in ("fifo", "woha-lpf")
        for seed in seeds
    ]


def worker_sweep(
    cells: Sequence[ExperimentCell],
    worker_counts: Sequence[int],
    repeats: int,
) -> Dict[str, Dict[str, object]]:
    """Wall clock of the same grid vs. worker count, checked against the
    sequential payload byte for byte."""
    reference = run_grid(cells, workers=0).dumps()
    sweep: Dict[str, Dict[str, object]] = {}
    for workers in worker_counts:
        best = float("inf")
        payload = None
        for _ in range(repeats):
            start = time.perf_counter()
            grid = run_grid(cells, workers=workers)
            best = min(best, time.perf_counter() - start)
            payload = grid.dumps()
        sweep[f"workers_{workers}"] = {
            "wall_s": round(max(best, 1e-9), 4),
            "cells": len(cells),
            "matches_sequential": payload == reference,
        }
    return sweep


def run_bench(
    node_sizes: Sequence[int] = FULL_NODE_SIZES,
    workflow_count: int = FULL_WORKFLOWS,
    worker_counts: Sequence[int] = FULL_WORKER_COUNTS,
    grid_cells: Sequence[ExperimentCell] = None,
    repeats: int = 2,
) -> Dict[str, object]:
    """Measure both sweeps and return the trajectory payload."""
    cells = list(grid_cells) if grid_cells is not None else sweep_grid()
    return {
        "bench": "scale",
        "repeats": repeats,
        "corpus": {
            "cluster_workflows": workflow_count,
            "grid_cells": len(cells),
        },
        "cluster_sweep": cluster_sweep(node_sizes, workflow_count, repeats),
        "worker_sweep": worker_sweep(cells, worker_counts, repeats),
    }


def write_json(payload: Dict[str, object], path: str = JSON_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.mark.perf
def test_scale():
    payload = run_bench()

    cluster_rows = [
        [name] + [payload["cluster_sweep"][name][key] for key in CLUSTER_METRIC_KEYS]
        for name in sorted(payload["cluster_sweep"])
    ]
    emit(
        "scale:cluster",
        format_table(
            ["cluster"] + list(CLUSTER_METRIC_KEYS),
            cluster_rows,
            title=f"Cluster-size sweep ({payload['corpus']['cluster_workflows']} workflows)",
            float_fmt="{:.2f}",
        ),
    )
    worker_rows = [
        [name] + [payload["worker_sweep"][name][key] for key in WORKER_METRIC_KEYS]
        for name in sorted(payload["worker_sweep"])
    ]
    emit(
        "scale:workers",
        format_table(
            ["runner"] + list(WORKER_METRIC_KEYS),
            worker_rows,
            title=f"Worker sweep ({payload['corpus']['grid_cells']}-cell grid)",
            float_fmt="{:.2f}",
        ),
    )
    write_json(payload)

    # The tier's hard bar: sharding never changes results, at any width.
    assert all(
        entry["matches_sequential"] for entry in payload["worker_sweep"].values()
    )
    # And the 2000-node tier actually ran at scale.
    biggest = payload["cluster_sweep"][f"nodes_{max(FULL_NODE_SIZES)}"]
    assert biggest["events"] > 0 and biggest["events_per_sec"] > 0
