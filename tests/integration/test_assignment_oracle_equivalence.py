"""The default assignment loops match their frozen per-call reference.

``JobTracker.heartbeat`` and ``JobTracker.schedule_round`` are unrolled
over the map and reduce pools, and untraced scheduling rounds skip asking
the scheduler for a kind already proven idle when its idle answers are
pure (DESIGN.md §10).  The batched, quiescent-heartbeat and perflint
equivalence suites all run traced, and a traced round still asks, so none
of them covers the untraced path.  This suite does: each scenario runs on
the production loops and on the frozen per-call loops of
:mod:`tests.reference_assignment`, untraced and traced, and the two runs
must launch the same tasks at the same times on the same trackers and end
with equal stats, makespan and event count.

``WohaScheduler.select_task`` walks the priority list once, traced or not;
the same comparison against the frozen two-walk kernel of
:mod:`tests.reference_woha` pins its decisions and, traced, its
``decision`` payloads (queue position and skipped workflows) byte for
byte.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.failures import FailureInjector, Outage
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.speculation import SpeculationManager
from repro.core.client import make_planner
from repro.core.replanning import ReplanningWohaScheduler
from repro.core.scheduler import NaiveWohaScheduler, WohaScheduler
from repro.noise import LognormalNoise
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.workflow.builder import WorkflowBuilder

from tests.reference_assignment import use_reference_loops
from tests.reference_woha import use_reference_select_task

SCHEDULERS = {
    "fifo": FifoScheduler,
    "fair": FairScheduler,
    "edf": EdfScheduler,
    "woha-dsl": lambda: WohaScheduler(queue_backend="dsl"),
    "woha-bst": lambda: WohaScheduler(queue_backend="bst"),
    "woha-list": lambda: WohaScheduler(queue_backend="list"),
    "woha-naive": NaiveWohaScheduler,
    "woha-replan": lambda: ReplanningWohaScheduler(min_lag=1, lag_fraction=0.05, cooldown=10.0),
}
INF = float("inf")


class LaunchLog:
    """JobTracker listener recording every launch in order."""

    def __init__(self):
        self.launches = []

    def on_task_launch(self, task, now):
        self.launches.append((now, task.task_id, task.tracker_id, task.speculative))


def build_workload(seed: int, n_workflows: int = 4):
    """Staggered, contended workflows with deadlines tight enough that
    noisy durations push some of them behind plan (and so replan)."""
    rng = random.Random(seed)
    workflows = []
    for w in range(n_workflows):
        builder = WorkflowBuilder(f"wf{seed}_{w}").submit_at(round(rng.uniform(0.0, 40.0), 1))
        names = []
        for j in range(rng.randint(2, 4)):
            after = [name for name in names if rng.random() < 0.5][:2]
            builder.job(
                f"j{j}",
                maps=rng.randint(2, 10),
                reduces=rng.randint(0, 3),
                map_s=rng.choice([5.0, 10.0, 30.0]),
                reduce_s=rng.choice([5.0, 15.0]),
                after=after,
            )
            names.append(f"j{j}")
        builder.deadline(relative=rng.choice([90.0, 150.0, 600.0]))
        workflows.append(builder.build())
    return workflows


def run_once(sched_name, mode, heartbeat, *, trace, seed=0, batched=False, outages=(),
             speculate=False):
    config = ClusterConfig(
        num_nodes=4,
        map_slots_per_node=2,
        reduce_slots_per_node=1,
        heartbeat_interval=heartbeat,
        batched_assignment=batched,
    )
    scheduler = SCHEDULERS[sched_name]()
    sim = ClusterSimulation(
        config,
        scheduler,
        submission=mode,
        planner=make_planner("lpf") if mode == "woha" else None,
        duration_sampler_factory=LognormalNoise(0.5, seed=seed),
        trace=trace,
    )
    if speculate:
        SpeculationManager(sim.sim, sim.jobtracker, slow_factor=1.4, min_runtime=5.0,
                           check_interval=5.0)
    log = LaunchLog()
    sim.jobtracker.add_listener(log)
    sim.add_workflows(build_workload(seed))
    if outages:
        FailureInjector(sim.sim, sim.jobtracker).schedule(outages)
    return log.launches, sim.run(), scheduler


def assert_matches_reference(use_reference=use_reference_loops, **kwargs):
    """Run the scenario on the production code and on the reference that
    ``use_reference`` patches in, and compare; returns the production
    run's scheduler and result."""
    launches, result, scheduler = run_once(**kwargs)
    with pytest.MonkeyPatch.context() as patch:
        use_reference(patch)
        ref_launches, reference, _ = run_once(**kwargs)
    assert launches == ref_launches
    assert result.stats == reference.stats
    assert result.makespan == reference.makespan
    assert result.events_processed == reference.events_processed
    if kwargs["trace"]:
        # A traced round still asks for an idle kind, so even the idle
        # decision events line up.
        assert result.tracer.dumps_jsonl() == reference.tracer.dumps_jsonl()
    return scheduler, result


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("heartbeat", [3.0, INF], ids=["hb3", "hbinf"])
@pytest.mark.parametrize("mode", ["oozie", "woha"])
@pytest.mark.parametrize("sched_name", list(SCHEDULERS))
def test_default_loops_match_reference(sched_name, mode, heartbeat, trace, seed):
    assert_matches_reference(sched_name=sched_name, mode=mode, heartbeat=heartbeat, trace=trace,
                             seed=seed)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("heartbeat", [3.0, INF], ids=["hb3", "hbinf"])
@pytest.mark.parametrize("sched_name", ["fifo", "woha-dsl", "woha-replan"])
def test_batched_rounds_match_reference(sched_name, heartbeat, trace):
    """``_round_batched`` reuses idle answers under the same rule."""
    assert_matches_reference(sched_name=sched_name, mode="woha", heartbeat=heartbeat,
                             trace=trace, batched=True)


def test_replanning_scenario_really_replans():
    """The replan cases above are only meaningful if plans get replaced."""
    scheduler, _ = assert_matches_reference(sched_name="woha-replan", mode="woha",
                                            heartbeat=INF, trace=False)
    assert scheduler.replans > 0


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("heartbeat", [3.0, INF], ids=["hb3", "hbinf"])
@pytest.mark.parametrize("sched_name", ["fifo", "woha-dsl"])
def test_speculator_runs_match_reference(sched_name, heartbeat, trace):
    """With a speculator attached every round asks, so backups launch on
    the same idle answers as before."""
    launches, _, _ = run_once(sched_name=sched_name, mode="oozie", heartbeat=heartbeat,
                              trace=trace, speculate=True)
    assert any(speculative for *_, speculative in launches)
    assert_matches_reference(sched_name=sched_name, mode="oozie", heartbeat=heartbeat,
                             trace=trace, speculate=True)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 50),
    sched_name=st.sampled_from(sorted(SCHEDULERS)),
    trace=st.booleans(),
    batched=st.booleans(),
    outage_plan=st.lists(
        st.tuples(
            st.floats(1.0, 90.0).map(lambda t: round(t, 1)),  # kill time
            st.floats(5.0, 60.0).map(lambda t: round(t, 1)),  # downtime
        ),
        max_size=2,
    ),
)
def test_reference_equivalence_under_failures(seed, sched_name, trace, batched, outage_plan):
    """Random submit/complete/kill/revive interleavings.  Each outage hits
    a distinct tracker and always revives, so every run terminates."""
    outages = tuple(
        Outage(time=kill_time, tracker_id=i, down_for=down_for)
        for i, (kill_time, down_for) in enumerate(outage_plan)
    )
    assert_matches_reference(sched_name=sched_name, mode="oozie", heartbeat=3.0, trace=trace,
                             seed=seed, batched=batched, outages=outages)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("heartbeat", [3.0, INF], ids=["hb3", "hbinf"])
@pytest.mark.parametrize("mode", ["oozie", "woha"])
@pytest.mark.parametrize("sched_name", ["woha-dsl", "woha-bst", "woha-list", "woha-replan"])
def test_woha_kernel_matches_two_walk_reference(sched_name, mode, heartbeat, trace, seed):
    _, result = assert_matches_reference(use_reference=use_reference_select_task,
                                         sched_name=sched_name, mode=mode, heartbeat=heartbeat,
                                         trace=trace, seed=seed)
    if trace:
        # The walk past the head must actually run, or the skipped-list
        # and position payloads go untested.
        decisions = result.tracer.events("decision")
        assert any(event["skipped"] and event["task"] for event in decisions)
