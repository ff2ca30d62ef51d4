"""Parallel sharded experiment runner (DESIGN.md §11).

A sweep is a grid of :class:`ExperimentCell`\\ s — (scenario, scheduler,
seed, cluster size, workload scale).  :func:`run_grid` runs every cell,
either inline (``workers=0``) or fanned across a fork-started
:class:`~concurrent.futures.ProcessPoolExecutor`, and folds the per-cell
metrics into one :class:`~repro.metrics.collector.MetricsCollector` via
:meth:`~repro.metrics.collector.MetricsCollector.merge`.

Determinism is the whole design:

* a cell's RNG seed is :func:`shard_seed` — a stable hash of the cell *key*,
  never a worker index, process id or wall clock — so the same cell
  produces the same workload wherever it runs;
* workers regenerate workloads from ``(scenario, seed, scale)`` instead of
  unpickling workflow graphs, so the parent never ships anything a worker
  could observe out of order;
* cells are executed and merged in sorted-key order regardless of worker
  count, so :meth:`GridResult.dumps` is byte-identical for ``workers=0``
  and any ``workers=N`` of the same grid (pinned by
  ``tests/experiments/test_runner.py``);
* a cell that raises, or whose worker process dies, fails the whole grid
  with a :class:`RuntimeError` naming the cell key.

Wall-clock measurement deliberately lives in ``benchmarks/`` (outside the
linted decision-path tree), not here: the runner's outputs are pure
functions of the grid.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.cluster.config import ClusterConfig
from repro.cluster.failures import FailureSchedule
from repro.cluster.simulation import ClusterSimulation, WorkflowStats
from repro.experiments.scenarios import SCENARIOS
from repro.metrics.collector import MetricsCollector
from repro.registry import STACK_NAMES, make_stack

__all__ = [
    "ExperimentCell",
    "CellResult",
    "GridResult",
    "shard_seed",
    "run_grid",
]

@dataclass(frozen=True)
class ExperimentCell:
    """One point of a sweep grid.

    ``seed`` is the *grid* seed (replication index); the RNG seed a cell
    actually runs with is :func:`shard_seed` of its key, so two cells
    differing in any coordinate draw unrelated workloads even at the same
    grid seed.
    """

    scenario: str
    scheduler: str  # a stack name from repro.registry.STACKS
    seed: int
    nodes: int = 8
    scale: float = 0.25

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.scheduler not in STACK_NAMES:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")

    @property
    def key(self) -> str:
        """Stable identity: the shard-seed input and the merge sort key."""
        return (
            f"{self.scenario}|{self.scheduler}|seed={self.seed}"
            f"|nodes={self.nodes}|scale={self.scale:g}"
        )


def shard_seed(cell: ExperimentCell) -> int:
    """Deterministic per-cell RNG seed: a stable hash of the cell key.

    SHA-256 (not Python's salted ``hash``) so the value is identical
    across processes and interpreter invocations; the first 8 bytes give
    a 64-bit seed for :func:`numpy.random.default_rng`.
    """
    digest = hashlib.sha256(cell.key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class CellResult:
    """One cell's simulation outcome, picklable for the worker boundary."""

    key: str
    stats: Dict[str, WorkflowStats]
    metrics: MetricsCollector
    makespan: float
    events_processed: int

    def to_payload(self) -> Dict[str, object]:
        """JSON-able summary used for cross-run byte comparison."""
        return {
            "workflows": {
                name: {
                    "submit_time": ws.submit_time,
                    "completion_time": ws.completion_time,
                    "deadline": ws.deadline,
                    "tardiness": ws.tardiness,
                    "met_deadline": ws.met_deadline,
                }
                for name, ws in sorted(self.stats.items())
            },
            "makespan": self.makespan,
            "events_processed": self.events_processed,
            "tasks_launched": self.metrics.tasks_launched,
            "tasks_completed": self.metrics.tasks_completed,
            "tasks_lost": self.metrics.tasks_lost,
            "utilization": self.metrics.utilization(),
        }


@dataclass
class GridResult:
    """A whole sweep: per-cell results plus the merged collector."""

    cells: List[CellResult]
    merged: MetricsCollector
    workers: int = 0

    @property
    def stats(self) -> Dict[str, Dict[str, WorkflowStats]]:
        """``{cell key: {workflow name: stats}}`` over the grid."""
        return {cell.key: cell.stats for cell in self.cells}

    def to_payload(self) -> Dict[str, object]:
        """Deterministic JSON-able view of the whole grid.

        Excludes ``workers`` on purpose: the payload of a sharded run must
        be byte-identical to the sequential run of the same grid.
        """
        return {
            "cells": {cell.key: cell.to_payload() for cell in self.cells},
            "merged": {
                "window": self.merged.window,
                "utilization": self.merged.utilization(),
                "busy_map_seconds": self.merged.busy_map_seconds,
                "busy_reduce_seconds": self.merged.busy_reduce_seconds,
                "tasks_launched": self.merged.tasks_launched,
                "tasks_completed": self.merged.tasks_completed,
                "tasks_lost": self.merged.tasks_lost,
                "scheduler_counters": self.merged.scheduler_counters,
            },
        }

    def dumps(self) -> str:
        """Canonical JSON of :meth:`to_payload` for byte comparison."""
        return json.dumps(self.to_payload(), sort_keys=True)


# repro: entrypoint[fork]
def run_cell(cell: ExperimentCell) -> CellResult:
    """Run one cell to completion (module-level, hence pool-picklable).

    Declared a fork entry point: everything reachable from here runs in a
    pool worker, so the DT301 dataflow rule rejects writes to module or
    class-level mutable state on any path below this function — workers
    must regenerate state from the cell key (the per-shard regeneration
    pattern, DESIGN.md §11), never share it with the parent.
    """
    workflows, outages = SCENARIOS[cell.scenario](shard_seed(cell), cell.scale)
    scheduler, mode, planner = make_stack(cell.scheduler)
    config = ClusterConfig(num_nodes=cell.nodes, heartbeat_interval=float("inf"))
    sim = ClusterSimulation(config, scheduler, submission=mode, planner=planner)
    sim.add_workflows(workflows)
    if outages:
        FailureSchedule(tuple(outages)).apply(sim.sim, sim.jobtracker)
    result = sim.run()
    return CellResult(
        key=cell.key,
        stats=result.stats,
        metrics=result.metrics,
        makespan=result.makespan,
        events_processed=result.events_processed,
    )


def run_grid(cells: Sequence[ExperimentCell], workers: int = 0) -> GridResult:
    """Run every cell and merge the metrics, deterministically.

    ``workers=0`` runs inline in this process; ``workers=N`` fans the
    cells over a fork-started process pool of N workers, one future per
    cell.  Either way the cells run from their own shard seeds and the
    merge folds them in sorted-key order, so the returned
    :class:`GridResult` payload is byte-identical across worker counts.

    A cell that raises fails the grid with a :class:`RuntimeError` naming
    its key.  So does a worker process that dies (``BrokenProcessPool``):
    every unfinished cell then fails, and the error names the first of
    them in key order.
    """
    ordered = sorted(cells, key=lambda cell: cell.key)
    keys = [cell.key for cell in ordered]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate cell keys in grid")
    results: List[CellResult] = []
    if workers <= 0:
        for cell in ordered:
            with _naming(cell):
                results.append(run_cell(cell))
    else:
        fork = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=fork)
        try:
            futures = [pool.submit(run_cell, cell) for cell in ordered]
            for cell, future in zip(ordered, futures):
                with _naming(cell):
                    results.append(future.result())
        finally:
            # On a failure, drop the cells not yet started instead of
            # running them before the error surfaces.
            pool.shutdown(cancel_futures=True)
    merged: Optional[MetricsCollector] = None
    for result in results:
        if merged is None:
            merged = MetricsCollector(result.metrics.config)
        merged.merge(result.metrics)
    if merged is None:
        merged = MetricsCollector(ClusterConfig(num_nodes=1))
    return GridResult(cells=results, merged=merged, workers=workers)


@contextmanager
def _naming(cell: ExperimentCell) -> Iterator[None]:
    """Re-raise any failure inside the block as one naming the cell."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"cell {cell.key} failed: {exc!r}") from exc
