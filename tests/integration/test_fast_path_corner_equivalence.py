"""Parked heartbeats and batched assignment compose without changing a decision.

Heartbeat parking (``JobTracker._hb_quiescent``) and batched assignment
rounds are each pinned to their reference path by their own suites.  This
one pins the *composition*: for every scheduler and submission mode, all
four corners of (parked heartbeats vs. the never-parking oracle of
:func:`tests.reference_assignment.use_unparked_heartbeats`) x (batched
assignment on/off) must produce one byte-identical DecisionTracer stream,
the same counters and the same makespan.  A run crosses the heartbeat
tick, the wake path, task completion, the batched FIFO/Fair rounds and the
skip-list update paths, so a shortcut that is sound alone but not in
combination shows up here.  A scripted tracker outage adds the kill and
revive paths, which re-run the eager round and wake parked timers.
"""

import random

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.failures import FailureSchedule, Outage
from repro.cluster.simulation import ClusterSimulation
from repro.core.client import make_planner
from repro.core.scheduler import WohaScheduler
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.workflow.builder import WorkflowBuilder

from tests.reference_assignment import use_unparked_heartbeats

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


#: Tracker 1 dies while the staggered submissions are still arriving and
#: comes back before the workload drains.
OUTAGE = FailureSchedule((Outage(time=20.0, tracker_id=1, down_for=30.0),))


def run_once(seed, mode, sched_name, *, quiescent, batched, outage=None):
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
        if outage is not None:
            outage.apply(sim.sim, sim.jobtracker)
        return sim.run()


def assert_corners_agree(seed, mode, sched_name, outage=None):
    corners = {
        (quiescent, batched): run_once(
            seed, mode, sched_name, quiescent=quiescent, batched=batched, outage=outage
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
    return reference


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mode", ["oozie", "woha"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
def test_all_fast_path_corners_agree(seed, mode, sched_name):
    assert_corners_agree(seed, mode, sched_name)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", ["oozie", "woha"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
def test_all_fast_path_corners_agree_under_an_outage(seed, mode, sched_name):
    reference = assert_corners_agree(seed, mode, sched_name, outage=OUTAGE)
    # The outage bit: the dead tracker's running attempts were lost.
    assert reference.metrics.tasks_lost > 0

