"""End-to-end integration: trace workloads, both submission paths, both
scheduling modes, invariants across the whole stack."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.tasks import TaskKind
from repro.core.client import make_planner
from repro.core.scheduler import WohaScheduler
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.workloads.yahoo import YahooTraceConfig, generate_yahoo_workflows


@pytest.fixture(scope="module")
def trace():
    # A reduced-size trace keeps this module fast while still exercising
    # DAGs, contention and deadline diversity.
    config = YahooTraceConfig(
        num_workflows=16, total_jobs=48, num_single_job=4, seed=11, drop_single_job=False
    )
    return generate_yahoo_workflows(config)


def cluster(m=60, r=30):
    return ClusterConfig.from_total_slots(m, r, nodes=10, heartbeat_interval=float("inf"))


class TestTraceRuns:
    @pytest.mark.parametrize(
        "scheduler_factory,mode,planner",
        [
            (FifoScheduler, "oozie", None),
            (EdfScheduler, "oozie", None),
            (WohaScheduler, "woha", "lpf"),
        ],
        ids=["fifo", "edf", "woha"],
    )
    def test_trace_completes_under_every_stack(self, trace, scheduler_factory, mode, planner):
        sim = ClusterSimulation(
            cluster(),
            scheduler_factory(),
            submission=mode,
            planner=make_planner(planner) if planner else None,
        )
        sim.add_workflows(trace)
        result = sim.run()
        assert all(s.completion_time < float("inf") for s in result.stats.values())
        wjob_tasks = sum(w.total_tasks for w in trace)
        if mode == "woha":
            wjob_tasks += sum(len(w) for w in trace)  # one submitter task per wjob
        assert result.metrics.tasks_completed == wjob_tasks

    def test_no_slot_oversubscription_on_trace(self, trace):
        sim = ClusterSimulation(cluster(), WohaScheduler(), submission="woha", planner=make_planner())
        sim.add_workflows(trace)
        result = sim.run()
        assert result.metrics.peak_allocation(TaskKind.MAP) <= 60
        assert result.metrics.peak_allocation(TaskKind.REDUCE) <= 30

    def test_more_slots_do_not_increase_misses(self, trace):
        """Sanity for the Fig 8 sweep: the miss ratio is (weakly) monotone
        in cluster size for the WOHA stack on this trace."""
        ratios = []
        for m, r in ((40, 20), (80, 40), (160, 80)):
            sim = ClusterSimulation(
                ClusterConfig.from_total_slots(m, r, nodes=10, heartbeat_interval=float("inf")),
                WohaScheduler(),
                submission="woha",
                planner=make_planner(),
            )
            sim.add_workflows(trace)
            ratios.append(sim.run().miss_ratio)
        assert ratios[0] >= ratios[-1]

    def test_heartbeat_and_eager_modes_both_finish_trace(self, trace):
        hb_cluster = ClusterConfig.from_total_slots(
            60, 30, nodes=10, heartbeat_interval=3.0, eager_heartbeats=True
        )
        sim = ClusterSimulation(hb_cluster, FifoScheduler(), submission="oozie")
        sim.add_workflows(trace)
        result = sim.run()
        assert all(s.completion_time < float("inf") for s in result.stats.values())


class TestSchedulerSwapEquivalence:
    def test_queue_backends_agree_on_trace(self, trace):
        outcomes = []
        for backend in ("dsl", "bst"):
            sim = ClusterSimulation(
                cluster(), WohaScheduler(queue_backend=backend), submission="woha", planner=make_planner()
            )
            sim.add_workflows(trace)
            result = sim.run()
            outcomes.append({k: v.completion_time for k, v in result.stats.items()})
        assert outcomes[0] == outcomes[1]
