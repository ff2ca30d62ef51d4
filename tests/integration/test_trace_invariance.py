"""Tracing must be purely observational.

The acceptance bar for the decision-tracing layer: enabling it changes
*zero* scheduling decisions.  For every scheduler we run the same scenario
twice — tracer attached and not — record the full assignment sequence
(launch time, task id) through a JobTracker listener, and compare the two
sequences as serialised bytes.
"""

import json

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation
from repro.core.client import make_planner
from repro.core.replanning import ReplanningWohaScheduler
from repro.noise import LognormalNoise
from repro.registry import SCHEDULER_REGISTRY
from repro.workflow.builder import WorkflowBuilder
from repro.workloads.topologies import fig11_workflows


class AssignmentLog:
    """JobTracker listener that records every launch in order."""

    def __init__(self):
        self.launches = []

    def on_task_launch(self, task, now):
        self.launches.append((now, task.task_id))


def scenario():
    """A contended mix: deadlines, a chain, a best-effort filler."""
    tight = (
        WorkflowBuilder("tight")
        .job("a", maps=6, reduces=2, map_s=10, reduce_s=20)
        .deadline(relative=120.0)
        .submit_at(5.0)
        .build()
    )
    chain = (
        WorkflowBuilder("chain")
        .job("x", maps=2, reduces=1, map_s=8, reduce_s=15)
        .job("y", maps=3, reduces=1, map_s=8, reduce_s=15, after=["x"])
        .deadline(relative=300.0)
        .build()
    )
    filler = WorkflowBuilder("filler").job("f", maps=10, reduces=0, map_s=12).build()
    return [tight, chain, filler]


SCHEDULERS = {
    **SCHEDULER_REGISTRY,
    "woha-replan": lambda: ReplanningWohaScheduler(min_lag=1, lag_fraction=0.05),
}
OOZIE = ("fifo", "fair", "edf")


def run_assignments(name, trace, heartbeat=float("inf")):
    config = ClusterConfig(
        num_nodes=2, map_slots_per_node=2, reduce_slots_per_node=1,
        heartbeat_interval=heartbeat,
    )
    mode = "oozie" if name in OOZIE else "woha"
    planner = make_planner("lpf") if mode == "woha" else None
    sim = ClusterSimulation(
        config, SCHEDULERS[name](), submission=mode, planner=planner, trace=trace
    )
    log = AssignmentLog()
    sim.jobtracker.add_listener(log)
    sim.add_workflows(scenario())
    result = sim.run()
    return log.launches, result


@pytest.mark.parametrize("name", list(SCHEDULERS))
def test_tracing_does_not_change_decisions(name):
    plain, _ = run_assignments(name, trace=False)
    traced, result = run_assignments(name, trace=True)
    assert json.dumps(traced).encode() == json.dumps(plain).encode()
    # And the trace really observed those decisions.
    assert result.tracer is not None
    assert len(result.tracer.events("decision")) > 0
    assert len(result.tracer.events("assign")) == len(traced)


@pytest.mark.parametrize("name", ["fifo", "woha-dsl"])
def test_tracing_invariant_under_heartbeats(name):
    """Same invariance with the periodic-heartbeat assignment path."""
    plain, _ = run_assignments(name, trace=False, heartbeat=3.0)
    traced, _ = run_assignments(name, trace=True, heartbeat=3.0)
    assert json.dumps(traced).encode() == json.dumps(plain).encode()


def run_fig11_replanning(trace, batched):
    """The replanning ablation's Fig 11 run at sigma=0.5: large enough
    that plans go stale and get replaced mid-run."""
    scheduler = ReplanningWohaScheduler(min_lag=20, lag_fraction=0.05, cooldown=120.0)
    config = ClusterConfig(
        num_nodes=32, map_slots_per_node=2, reduce_slots_per_node=1,
        heartbeat_interval=float("inf"), batched_assignment=batched,
    )
    sim = ClusterSimulation(
        config, scheduler, submission="woha", planner=make_planner("lpf"),
        duration_sampler_factory=LognormalNoise(0.5, seed=9), trace=trace,
    )
    log = AssignmentLog()
    sim.jobtracker.add_listener(log)
    sim.add_workflows(fig11_workflows())
    return log.launches, sim.run(), scheduler


@pytest.mark.parametrize("batched", [False, True], ids=["per-call", "batched"])
def test_replanning_tracing_does_not_change_decisions(batched):
    """Regression: untraced batched rounds once reused idle answers from
    the replanning scheduler, whose every ``select_task`` runs the replan
    check, so max tardiness came out 1622.8 untraced vs 1625.2 traced."""
    plain, plain_result, scheduler = run_fig11_replanning(trace=False, batched=batched)
    traced, traced_result, _ = run_fig11_replanning(trace=True, batched=batched)
    assert scheduler.replans > 0
    assert json.dumps(traced).encode() == json.dumps(plain).encode()
    assert plain_result.stats == traced_result.stats
    assert plain_result.max_tardiness == traced_result.max_tardiness


def test_every_assignment_has_a_decision_with_lag_fields():
    """Acceptance: each assign event pairs with a decision that carries the
    chosen workflow's lag and queue position."""
    _, result = run_assignments("woha-dsl", trace=True)
    tracer = result.tracer
    decisions = {
        e["task"]: e for e in tracer.events("decision") if e["task"] is not None
    }
    assigns = tracer.events("assign")
    assert assigns
    for assign in assigns:
        decision = decisions[assign["task"]]
        assert decision["workflow"] == assign["workflow"]
        assert "lag" in decision and "position" in decision and "queue_len" in decision
        assert decision["position"] is not None
        assert decision["queue_len"] >= 1


def test_ring_capacity_trace_still_invariant():
    plain, _ = run_assignments("woha-dsl", trace=False)
    traced, result = run_assignments("woha-dsl", trace=8)
    assert traced == plain
    assert len(result.tracer) <= 8
    assert result.tracer.dropped > 0


def test_counters_aggregated_into_metrics():
    _, result = run_assignments("woha-dsl", trace=True)
    counters = result.metrics.scheduler_counters["WOHA"]
    assert counters["decisions"] > 0
    assert counters["assignments"] == len(result.tracer.events("assign"))
    assert counters["slot_frees"] > 0
