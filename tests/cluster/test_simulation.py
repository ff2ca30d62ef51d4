"""Integration-grade tests for the ClusterSimulation driver."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.tasks import TaskKind
from repro.core.client import make_planner
from repro.events import SimulationError
from repro.core.scheduler import WohaScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.workflow.builder import WorkflowBuilder

from tests.reference_assignment import use_unparked_heartbeats


class TestOozieMode:
    def test_single_workflow_completes(self, small_workflow, tiny_cluster):
        sim = ClusterSimulation(tiny_cluster, FifoScheduler(), submission="oozie")
        sim.add_workflow(small_workflow)
        result = sim.run()
        stats = result.stats["wf"]
        assert stats.completion_time < float("inf")
        assert stats.met_deadline
        assert result.metrics.tasks_completed == small_workflow.total_tasks

    def test_exact_makespan_of_chain(self, tiny_cluster):
        # chain: a (2 maps @10s, then 1 reduce @20s) -> b (same): strictly
        # serial phases on a 4-map/2-reduce cluster => 2*(10+20) = 60s.
        wf = (
            WorkflowBuilder("c")
            .job("a", maps=2, reduces=1, map_s=10, reduce_s=20)
            .job("b", maps=2, reduces=1, map_s=10, reduce_s=20, after=["a"])
            .build()
        )
        sim = ClusterSimulation(tiny_cluster, FifoScheduler(), submission="oozie")
        sim.add_workflow(wf)
        result = sim.run()
        assert result.stats["c"].completion_time == 60.0

    def test_submit_time_respected(self, small_workflow, tiny_cluster):
        shifted = small_workflow.with_timing(submit_time=100.0, deadline=500.0)
        sim = ClusterSimulation(tiny_cluster, FifoScheduler(), submission="oozie")
        sim.add_workflow(shifted)
        result = sim.run()
        assert result.stats["wf"].submit_time == 100.0
        assert result.stats["wf"].completion_time >= 100.0

    def test_unknown_mode_rejected(self, tiny_cluster):
        with pytest.raises(ValueError):
            ClusterSimulation(tiny_cluster, FifoScheduler(), submission="magic")


class TestWohaMode:
    def test_planner_invoked_and_workflow_completes(self, small_workflow, tiny_cluster):
        calls = []
        base = make_planner("lpf")

        def spy(workflow, total_slots):
            calls.append((workflow.name, total_slots))
            return base(workflow, total_slots)

        sim = ClusterSimulation(tiny_cluster, WohaScheduler(), submission="woha", planner=spy)
        sim.add_workflow(small_workflow)
        result = sim.run()
        assert calls == [("wf", tiny_cluster.total_slots)]
        assert result.stats["wf"].met_deadline

    def test_submitter_tasks_occupy_map_slots(self, small_workflow, tiny_cluster):
        sim = ClusterSimulation(tiny_cluster, WohaScheduler(), submission="woha", planner=make_planner())
        sim.add_workflow(small_workflow)
        result = sim.run()
        # 4 wjobs => 4 submitter tasks + 15 wjob tasks
        assert result.metrics.tasks_completed == small_workflow.total_tasks + 4


class TestHeartbeatVsEager:
    def test_heartbeat_mode_completes_with_bounded_slack(self, small_workflow, tiny_cluster, heartbeat_cluster):
        eager = ClusterSimulation(tiny_cluster, FifoScheduler(), submission="oozie")
        eager.add_workflow(small_workflow)
        t_eager = eager.run().stats["wf"].completion_time

        hb = ClusterSimulation(heartbeat_cluster, FifoScheduler(), submission="oozie")
        hb.add_workflow(small_workflow)
        t_hb = hb.run().stats["wf"].completion_time
        # Heartbeat polling can add at most ~one interval per scheduling
        # opportunity; for this 8-wave workflow allow a generous bound.
        assert t_hb <= t_eager + 8 * heartbeat_cluster.heartbeat_interval
        assert t_hb > 0


class TestInvariantsDuringRun:
    def test_slots_never_oversubscribed(self, tiny_cluster):
        """Track peak per-kind usage through the metrics collector."""
        wf = (
            WorkflowBuilder("big")
            .job("wide", maps=50, reduces=10, map_s=5, reduce_s=7)
            .build()
        )
        sim = ClusterSimulation(tiny_cluster, FairScheduler(), submission="oozie")
        sim.add_workflow(wf)
        result = sim.run()
        assert result.metrics.peak_allocation(TaskKind.MAP) <= tiny_cluster.total_map_slots
        assert result.metrics.peak_allocation(TaskKind.REDUCE) <= tiny_cluster.total_reduce_slots

    def test_dependencies_respected(self, tiny_cluster, chain3):
        """No task of job k may start before job k-1 completed."""
        launches = {}
        completions = {}

        class Probe:
            def on_task_launch(self, task, now):
                launches.setdefault(task.job.name, []).append(now)

            def on_job_completed(self, jip, now):
                completions[jip.name] = now

        sim = ClusterSimulation(tiny_cluster, FifoScheduler(), submission="oozie")
        sim.jobtracker.add_listener(Probe())
        sim.add_workflow(chain3)
        sim.run()
        assert min(launches["j1"]) >= completions["j0"]
        assert min(launches["j2"]) >= completions["j1"]

    def test_work_conservation_single_workflow(self, tiny_cluster):
        """With one wide job pending, no map slot may idle while runnable
        maps exist: makespan equals the perfect-packing bound."""
        wf = WorkflowBuilder("w").job("wide", maps=8, reduces=0, map_s=10).build()
        sim = ClusterSimulation(tiny_cluster, FifoScheduler(), submission="oozie")
        sim.add_workflow(wf)
        result = sim.run()
        assert result.stats["w"].completion_time == 20.0  # 8 maps / 4 slots


class TestMultiWorkflow:
    def test_all_workflows_tracked(self, tiny_cluster):
        wfs = [
            WorkflowBuilder(f"w{i}").job("a", maps=2, reduces=1, map_s=5, reduce_s=5).build()
            for i in range(4)
        ]
        sim = ClusterSimulation(tiny_cluster, FifoScheduler(), submission="oozie")
        sim.add_workflows(wfs)
        result = sim.run()
        assert set(result.stats) == {f"w{i}" for i in range(4)}
        assert all(s.completion_time < float("inf") for s in result.stats.values())

    def test_miss_ratio_and_tardiness_aggregation(self, tiny_cluster):
        on_time = (
            WorkflowBuilder("ok").job("a", maps=1, reduces=0, map_s=5).deadline(relative=100).build()
        )
        late = (
            WorkflowBuilder("late").job("a", maps=8, reduces=0, map_s=10).deadline(relative=1).build()
        )
        sim = ClusterSimulation(tiny_cluster, FifoScheduler(), submission="oozie")
        sim.add_workflows([on_time, late])
        result = sim.run()
        assert result.miss_ratio == 0.5
        assert result.max_tardiness > 0
        assert result.total_tardiness == result.stats["late"].tardiness


class TestFiniteHeartbeatRunLoop:
    """Regressions for the periodic-heartbeat branch of ClusterSimulation.run."""

    def _sim(self):
        config = ClusterConfig(num_nodes=2, heartbeat_interval=3.0)
        sim = ClusterSimulation(config, FifoScheduler(), submission="oozie")
        wf = WorkflowBuilder("w").job("a", maps=2, reduces=1, map_s=10, reduce_s=10).build()
        sim.add_workflow(wf)
        return sim

    def test_run_until_does_not_overshoot_horizon(self):
        # The old loop checked `now < horizon` before stepping, so one step
        # could fire an event past `until` (here the completions at t=10).
        sim = self._sim()
        result = sim.run(until=7.5)
        assert sim.sim.now == 7.5
        assert result.stats["w"].completion_time == float("inf")

    def test_run_until_fires_events_at_the_horizon(self):
        # Same boundary rule as Simulator.run: events at exactly `until`
        # fire; only strictly later ones wait.
        sim = self._sim()
        sim.run(until=10.0)
        assert sim.sim.now == 10.0
        assert sim.jobtracker.workflows["w"].jobs["a"].maps_finished == 2

    def test_max_events_honoured_with_periodic_heartbeats(self, monkeypatch):
        # The finite-heartbeat branch used to ignore max_events entirely.
        use_unparked_heartbeats(monkeypatch)
        sim = self._sim()
        with pytest.raises(SimulationError):
            sim.run(max_events=5)

    def test_quiescent_run_terminates_with_incomplete_workflows(self):
        # A workflow that can never finish (its only job is never submitted)
        # must not hang the run loop: parked timers let the queue drain.
        config = ClusterConfig(num_nodes=2, heartbeat_interval=3.0)
        sim = ClusterSimulation(config, FifoScheduler(), submission="oozie")
        wf = (
            WorkflowBuilder("w")
            .job("a", maps=1, reduces=0, map_s=5)
            .job("b", maps=1, reduces=0, map_s=5, after=["a"])
            .build()
        )
        sim.add_workflow(wf)
        # Sabotage: the coordinator never hears about completions, so 'b'
        # is never submitted and the workflow can never finish.
        sim.jobtracker._hook_listeners["on_job_completed"] = [
            fn
            for fn in sim.jobtracker._hook_listeners["on_job_completed"]
            if getattr(fn, "__self__", None) is not sim.oozie
        ]
        result = sim.run()
        assert result.stats["w"].completion_time == float("inf")
