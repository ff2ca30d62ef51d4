"""Shared fixtures for the test suite."""

import contextlib
import io
from pathlib import Path
from typing import List, NamedTuple
from unittest import mock

import pytest

import repro
from repro import cli
from repro.analysis import LintReport, engine

from repro.cluster.config import ClusterConfig
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.model import Workflow


@pytest.fixture
def small_workflow() -> Workflow:
    """A 4-job diamond-with-tail used across scheduler tests.

    a (4m/2r) -> {b (2m/1r), c (3m/1r)} -> d (1m/1r); 15 tasks total.
    """
    return (
        WorkflowBuilder("wf")
        .job("a", maps=4, reduces=2, map_s=10, reduce_s=20)
        .job("b", maps=2, reduces=1, map_s=5, reduce_s=10, after=["a"])
        .job("c", maps=3, reduces=1, map_s=8, reduce_s=12, after=["a"])
        .job("d", maps=1, reduces=1, map_s=4, reduce_s=6, after=["b", "c"])
        .deadline(relative=300)
        .build()
    )


@pytest.fixture
def chain3() -> Workflow:
    """Three jobs in a strict chain."""
    return (
        WorkflowBuilder("chain")
        .job("j0", maps=2, reduces=1, map_s=10, reduce_s=10)
        .job("j1", maps=2, reduces=1, map_s=10, reduce_s=10, after=["j0"])
        .job("j2", maps=2, reduces=1, map_s=10, reduce_s=10, after=["j1"])
        .build()
    )


@pytest.fixture
def tiny_cluster() -> ClusterConfig:
    """2 nodes x (2 map + 1 reduce) with event-driven scheduling."""
    return ClusterConfig(
        num_nodes=2,
        map_slots_per_node=2,
        reduce_slots_per_node=1,
        heartbeat_interval=float("inf"),
    )


@pytest.fixture
def heartbeat_cluster() -> ClusterConfig:
    """Same size but pure periodic-heartbeat scheduling (no eager rounds)."""
    return ClusterConfig(
        num_nodes=2,
        map_slots_per_node=2,
        reduce_slots_per_node=1,
        heartbeat_interval=3.0,
        eager_heartbeats=False,
    )


class LintRun(NamedTuple):
    """One ``repro lint`` CLI invocation: exit code, stdout, and the
    :class:`~repro.analysis.LintReport` the CLI rendered."""

    exit_code: int
    stdout: str
    report: LintReport


@pytest.fixture(scope="session")
def interproc_lint_runs() -> List[LintRun]:
    """Two whole-tree ``repro lint --interproc --format json`` runs over
    ``src/repro`` with the checked-in baseline.

    The whole-program passes are the slowest thing tier-1 does, so the
    tests that need them (byte stability, a clean tree, the text summary,
    no stale baseline entry) share these two runs instead of each making
    their own.  The report each run rendered is kept, so the text form
    (what ``--format text`` prints) can be checked without a third run.
    """
    real_lint_paths = engine.lint_paths
    reports: List[LintReport] = []

    def recording_lint_paths(*args, **kwargs):
        reports.append(real_lint_paths(*args, **kwargs))
        return reports[-1]

    argv = [
        "lint", str(Path(repro.__file__).parent), "--format", "json", "--interproc",
        "--baseline", str(Path(__file__).parents[1] / "lint-baseline.txt"),
    ]
    runs = []
    # ``repro lint`` imports ``lint_paths`` from the engine when it runs.
    with mock.patch.object(engine, "lint_paths", recording_lint_paths):
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exit_code = cli.main(argv)
            runs.append(LintRun(exit_code, out.getvalue(), reports[-1]))
    return runs
