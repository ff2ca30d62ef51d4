"""Sharded experiment runner: determinism, merging, worker-count equality.

The runner's correctness bar (ISSUE 6): a sharded sweep must be
byte-identical to a sequential run of the same grid — same per-cell
WorkflowStats, same merged collector, same canonical JSON — for any worker
count and any input order.  Shard seeds must derive only from the cell key (stable hash), never
from worker index or wall clock.
"""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    SCENARIOS,
    ExperimentCell,
    run_grid,
    shard_seed,
)
from repro.experiments import runner
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


#: The cell :func:`_raising_run_cell` fails on (a module-level function, so
#: a fork worker can unpickle it by name).
VICTIM = ExperimentCell("yahoo", "fifo", **SMOKE)


def _raising_run_cell(cell):
    if cell == VICTIM:
        raise ValueError("planted failure")
    return run_cell(cell)


#: Run in a child interpreter: a cell whose worker exits abruptly.  A hang
#: here is caught by the subprocess timeout instead of stalling the suite.
_KILLED_WORKER = textwrap.dedent("""
    import os, sys
    from repro.experiments import ExperimentCell, run_grid, runner

    cells = [ExperimentCell(s, k, seed=0, nodes=4, scale=0.05)
             for s in ("periodic", "yahoo") for k in ("fifo", "woha-lpf")]
    victim = sorted(c.key for c in cells)[int(sys.argv[2])]
    real = runner.run_cell

    def dying(cell):
        if cell.key == victim:
            os._exit(9)
        return real(cell)

    runner.run_cell = dying
    try:
        run_grid(cells, workers=int(sys.argv[1]))
    except RuntimeError as exc:
        print(victim)
        print(exc)
        sys.exit(3)
""")


class TestFailures:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_cell_exception_names_the_cell(self, workers, monkeypatch):
        monkeypatch.setattr(runner, "run_cell", _raising_run_cell)
        with pytest.raises(RuntimeError, match="planted failure") as info:
            run_grid(smoke_grid(), workers=workers)
        assert VICTIM.key in str(info.value)

    @pytest.mark.parametrize(
        "workers, victim_index",
        # The first cell in key order with two workers; a later one with
        # one worker, where every earlier cell has already finished.
        [(2, 0), (1, 2)],
    )
    def test_killed_worker_fails_loudly_naming_the_cell(self, workers, victim_index):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_WORKER, str(workers), str(victim_index)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 3, proc.stderr
        victim, message = proc.stdout.splitlines()[:2]
        assert message.startswith(f"cell {victim} failed: BrokenProcessPool")


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
