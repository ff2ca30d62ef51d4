"""Sharded experiment runner: determinism, merging, worker-count equality.

The runner's correctness bar (ISSUE 6): a sharded sweep must be
byte-identical to a sequential run of the same grid — same per-cell
WorkflowStats, same merged collector, same canonical JSON — for any worker
count and any input order.  Shard seeds must derive only from the cell key (stable hash), never
from worker index or wall clock.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    SCENARIOS,
    ExperimentCell,
    run_grid,
    shard_seed,
)
from repro.experiments.runner import run_cell
from repro.registry import STACK_NAMES

#: One scheduler per submission mode family, plus the other oozie baselines.
FOUR_SCHEDULERS = ("fifo", "fair", "edf", "woha-lpf")

#: Small enough for tier-1; large enough that cells actually schedule work.
SMOKE = dict(seed=0, nodes=4, scale=0.1)


def smoke_grid(schedulers=("fifo", "woha-lpf"), scenarios=("periodic", "yahoo")):
    return [
        ExperimentCell(scenario, scheduler, **SMOKE)
        for scenario in scenarios
        for scheduler in schedulers
    ]


class TestCells:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ExperimentCell("nope", "fifo", seed=0)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            ExperimentCell("periodic", "nope", seed=0)

    def test_key_includes_every_coordinate(self):
        base = ExperimentCell("periodic", "fifo", seed=1, nodes=8, scale=0.5)
        variants = [
            ExperimentCell("yahoo", "fifo", seed=1, nodes=8, scale=0.5),
            ExperimentCell("periodic", "fair", seed=1, nodes=8, scale=0.5),
            ExperimentCell("periodic", "fifo", seed=2, nodes=8, scale=0.5),
            ExperimentCell("periodic", "fifo", seed=1, nodes=9, scale=0.5),
            ExperimentCell("periodic", "fifo", seed=1, nodes=8, scale=0.25),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == len(variants) + 1

    def test_shard_seed_is_a_pure_function_of_the_key(self):
        a = ExperimentCell("periodic", "fifo", seed=3)
        b = ExperimentCell("periodic", "fifo", seed=3)
        assert shard_seed(a) == shard_seed(b)
        assert shard_seed(a) != shard_seed(ExperimentCell("periodic", "fifo", seed=4))

    def test_duplicate_cells_rejected(self):
        cell = ExperimentCell("periodic", "fifo", **SMOKE)
        with pytest.raises(ValueError, match="duplicate"):
            run_grid([cell, cell])

    def test_registries_cover_each_other(self):
        # Every scenario and scheduler name a cell may use is exercisable.
        for scenario in SCENARIOS:
            ExperimentCell(scenario, "fifo", seed=0)
        for scheduler in STACK_NAMES:
            ExperimentCell("periodic", scheduler, seed=0)


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        cells = smoke_grid()
        assert run_grid(cells).dumps() == run_grid(cells).dumps()

    def test_input_order_does_not_matter(self):
        cells = smoke_grid()
        assert run_grid(cells).dumps() == run_grid(list(reversed(cells))).dumps()

    def test_sharded_equals_sequential(self):
        cells = smoke_grid()
        sequential = run_grid(cells, workers=0)
        sharded = run_grid(cells, workers=2)
        assert sharded.dumps() == sequential.dumps()
        assert sharded.stats == sequential.stats
        assert sharded.merged.scheduler_counters == sequential.merged.scheduler_counters

    def test_outage_cells_run_and_lose_tasks(self):
        cell = ExperimentCell("outages", "fifo", seed=1, nodes=4, scale=0.5)
        result = run_cell(cell)
        # The scripted outage actually bites: attempts die and re-run.
        assert result.metrics.tasks_lost > 0
        # Every workflow still completes (outages always revive).
        assert all(
            ws.completion_time != float("inf") for ws in result.stats.values()
        )


class TestMergedMetrics:
    def test_merged_counters_are_sums(self):
        cells = smoke_grid()
        grid = run_grid(cells)
        assert grid.merged.tasks_launched == sum(
            c.metrics.tasks_launched for c in grid.cells
        )
        assert grid.merged.window == pytest.approx(
            sum(c.metrics.window for c in grid.cells)
        )

    def test_merged_utilization_between_extremes(self):
        grid = run_grid(smoke_grid())
        utils = [c.metrics.utilization() for c in grid.cells]
        assert min(utils) <= grid.merged.utilization() <= max(utils)


@settings(max_examples=4, deadline=None)
@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    seed=st.integers(0, 20),
    workers=st.sampled_from([1, 2, 4]),
)
def test_worker_count_never_changes_results(scenario, seed, workers):
    """Satellite bar: 1, 2 and 4 workers all equal the sequential grid,
    across both submission modes and all four schedulers."""
    cells = [
        ExperimentCell(scenario, scheduler, seed=seed, nodes=4, scale=0.05)
        for scheduler in FOUR_SCHEDULERS
    ]
    sequential = run_grid(cells, workers=0)
    sharded = run_grid(cells, workers=workers)
    assert sharded.dumps() == sequential.dumps()
    assert sharded.stats == sequential.stats
    assert sharded.merged.tasks_launched == sequential.merged.tasks_launched
    assert sharded.merged.tasks_completed == sequential.merged.tasks_completed
    assert sharded.merged.busy_map_seconds == sequential.merged.busy_map_seconds
    assert sharded.merged.busy_reduce_seconds == sequential.merged.busy_reduce_seconds
