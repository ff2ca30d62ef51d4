"""The DT401-DT405 hot-path fixes change no decision (DESIGN.md §14).

ISSUE 9 pre-bound attribute chains in ``JobTracker._heartbeat_tick`` /
``_wake_parked`` / ``_complete_task``, ``Simulator``'s callers,
``FifoScheduler``/``FairScheduler`` batched rounds, and the
``DoubleSkipList``/``DeterministicSkipList`` update paths, and annotated
the surviving allocations with ``# repro: allow[DT401]`` bargains.  A
pre-bind is a pure strength reduction — same loads, same order, fewer
dict probes — so the DecisionTracer stream must be byte-identical across
every configuration corner that routes through the edited functions:
(parked heartbeats vs. the never-parking oracle of
:func:`tests.reference_assignment.use_unparked_heartbeats`) x (batched
assignment on/off).  The parking and batched equivalences are each pinned
separately by their own suites; asserting all four corners agree
additionally pins the *composition*, which crosses every edited function
in one run.

The suite also pins the acceptance bar itself: the production tree must
stay free of DT401-DT405 findings under ``repro lint --interproc``.
"""

import random
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation
from repro.core.client import make_planner
from repro.core.scheduler import WohaScheduler
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.workflow.builder import WorkflowBuilder

from tests.reference_assignment import use_unparked_heartbeats

REPO_ROOT = Path(__file__).resolve().parents[2]

SCHEDULERS = {
    "fifo": FifoScheduler,
    "fair": FairScheduler,
    "edf": EdfScheduler,
    "woha": WohaScheduler,
}


def build_workload(seed: int, n_workflows: int = 3):
    """Staggered submissions, mixed DAG shapes, enough tasks that the
    batched rounds and the skip-list update paths all run repeatedly."""
    rng = random.Random(seed)
    workflows = []
    for w in range(n_workflows):
        builder = WorkflowBuilder(f"wf{seed}_{w}").submit_at(round(rng.uniform(0.0, 30.0), 1))
        names = []
        for j in range(rng.randint(2, 4)):
            after = [name for name in names if rng.random() < 0.5][:2]
            builder.job(
                f"j{j}",
                maps=rng.randint(2, 8),
                reduces=rng.randint(0, 3),
                map_s=rng.choice([5.0, 10.0, 30.0]),
                reduce_s=rng.choice([5.0, 15.0]),
                after=after,
            )
            names.append(f"j{j}")
        builder.deadline(relative=rng.choice([120.0, 600.0]))
        workflows.append(builder.build())
    return workflows


def run_once(seed, mode, sched_name, *, quiescent, batched):
    config = ClusterConfig(
        num_nodes=4,
        map_slots_per_node=2,
        reduce_slots_per_node=1,
        heartbeat_interval=3.0,
        batched_assignment=batched,
    )
    planner = make_planner("lpf") if mode == "woha" else None
    with pytest.MonkeyPatch.context() as patch:
        if not quiescent:
            use_unparked_heartbeats(patch)
        sim = ClusterSimulation(
            config, SCHEDULERS[sched_name](), submission=mode, planner=planner, trace=True
        )
        sim.add_workflows(build_workload(seed))
        return sim.run()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", ["oozie", "woha"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
def test_all_fast_path_corners_agree(seed, mode, sched_name):
    corners = {
        (quiescent, batched): run_once(
            seed, mode, sched_name, quiescent=quiescent, batched=batched
        )
        for quiescent in (False, True)
        for batched in (False, True)
    }
    reference = corners[(False, False)]
    reference_trace = reference.tracer.dumps_jsonl()
    for key, result in corners.items():
        assert result.tracer.dumps_jsonl() == reference_trace, key
        assert result.stats == reference.stats, key
        assert result.makespan == reference.makespan, key


def test_production_tree_has_no_perf_findings():
    """The ISSUE 9 acceptance bar, as a regression test: every DT4xx
    finding on ``src/repro`` is either fixed or carries an inline
    ``# repro: allow[...]`` justification."""
    report = lint_paths(
        [REPO_ROOT / "src" / "repro"],
        baseline_path=REPO_ROOT / "lint-baseline.txt",
        interproc=True,
    )
    perf = [v for v in report.violations if v.rule.startswith("DT4")]
    assert perf == [], [v.render() for v in perf]
