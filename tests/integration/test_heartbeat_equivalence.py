"""Quiescent-heartbeat equivalence: parking changes no decision.

The quiescence protocol (DESIGN.md §10) parks periodic heartbeat timers
whose ticks are provably no-ops and wakes them on state changes.  Each
scenario runs on the production JobTracker and on the never-parking oracle
of :func:`tests.reference_assignment.use_unparked_heartbeats`:
DecisionTracer logs must be byte-identical and every WorkflowStats equal,
across seeds, both submission modes, all four schedulers, and finite vs.
infinite heartbeat intervals — including under random submit/complete/kill
interleavings (hypothesis).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.failures import FailureInjector, Outage
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
    """A small seeded workload with staggered submissions and mixed shapes."""
    rng = random.Random(seed)
    workflows = []
    for w in range(n_workflows):
        builder = WorkflowBuilder(f"wf{seed}_{w}").submit_at(round(rng.uniform(0.0, 30.0), 1))
        names = []
        for j in range(rng.randint(2, 4)):
            after = [name for name in names if rng.random() < 0.5][:2]
            builder.job(
                f"j{j}",
                maps=rng.randint(1, 4),
                reduces=rng.randint(0, 2),
                map_s=rng.choice([5.0, 10.0, 30.0]),
                reduce_s=rng.choice([5.0, 15.0]),
                after=after,
            )
            names.append(f"j{j}")
        builder.deadline(relative=rng.choice([120.0, 600.0]))
        workflows.append(builder.build())
    return workflows


def run_once(seed, mode, sched_name, heartbeat_interval, outages=()):
    config = ClusterConfig(
        num_nodes=4,
        map_slots_per_node=2,
        reduce_slots_per_node=1,
        heartbeat_interval=heartbeat_interval,
    )
    planner = make_planner("lpf") if mode == "woha" else None
    sim = ClusterSimulation(
        config, SCHEDULERS[sched_name](), submission=mode, planner=planner, trace=True
    )
    sim.add_workflows(build_workload(seed))
    if outages:
        FailureInjector(sim.sim, sim.jobtracker).schedule(outages)
    return sim.run()


def run_pair(*args, **kwargs):
    """The same scenario on the production JobTracker and on the
    never-parking oracle."""
    fast = run_once(*args, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        use_unparked_heartbeats(patch)
        reference = run_once(*args, **kwargs)
    return fast, reference


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", ["oozie", "woha"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("heartbeat_interval", [3.0, float("inf")])
def test_quiescent_heartbeats_change_nothing(seed, mode, sched_name, heartbeat_interval):
    fast, reference = run_pair(seed, mode, sched_name, heartbeat_interval)
    assert fast.tracer.dumps_jsonl() == reference.tracer.dumps_jsonl()
    assert fast.stats == reference.stats
    assert fast.makespan == reference.makespan
    # The fast path only ever removes no-op tick events.
    assert fast.events_processed <= reference.events_processed


def test_fast_path_actually_parks():
    """With long tasks and a finite interval, parking must drop events."""
    fast, reference = run_pair(2, "oozie", "fifo", 3.0)
    assert fast.tracer.dumps_jsonl() == reference.tracer.dumps_jsonl()
    assert fast.events_processed < reference.events_processed


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 50),
    sched_name=st.sampled_from(sorted(SCHEDULERS)),
    outage_plan=st.lists(
        st.tuples(
            st.floats(1.0, 90.0).map(lambda t: round(t, 1)),  # kill time
            st.floats(5.0, 60.0).map(lambda t: round(t, 1)),  # downtime
        ),
        max_size=2,
    ),
)
def test_park_wake_equivalence_under_failures(seed, sched_name, outage_plan):
    """Random submit/complete/kill/revive interleavings: parked and
    unparked runs identical.

    Each outage hits a distinct tracker and always revives, so every
    workflow eventually completes and both runs terminate.
    """
    outages = tuple(
        Outage(time=kill_time, tracker_id=i, down_for=down_for)
        for i, (kill_time, down_for) in enumerate(outage_plan)
    )
    fast, reference = run_pair(seed, "oozie", sched_name, 3.0, outages=outages)
    assert fast.tracer.dumps_jsonl() == reference.tracer.dumps_jsonl()
    assert fast.stats == reference.stats
