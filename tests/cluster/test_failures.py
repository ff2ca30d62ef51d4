"""Tests for tracker failure handling and the failure injector."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.failures import FailureInjector, FailureSchedule, Outage
from repro.cluster.jobtracker import JobTracker
from repro.cluster.simulation import ClusterSimulation
from repro.core.client import make_planner
from repro.core.scheduler import WohaScheduler
from repro.events import Simulator
from repro.schedulers.fifo import FifoScheduler
from repro.workflow.builder import WorkflowBuilder

from tests.reference_assignment import use_unparked_heartbeats


def rig(nodes=4):
    sim = Simulator()
    config = ClusterConfig(
        num_nodes=nodes, map_slots_per_node=2, reduce_slots_per_node=1, heartbeat_interval=float("inf")
    )
    jt = JobTracker(sim, config, FifoScheduler())
    return sim, jt


def wide(name="w", maps=8, reduces=4):
    return (
        WorkflowBuilder(name)
        .job("a", maps=maps, reduces=reduces, map_s=10, reduce_s=20)
        .build()
    )


class TestKillTracker:
    def test_running_tasks_requeued_and_rerun(self):
        sim, jt = rig(nodes=4)
        jt.submit_workflow(wide(), use_submitter=False)
        jt.submit_wjob("w", "a")
        sim.run(until=5.0)  # 8 maps running on 8 slots
        lost = jt.kill_tracker(0)
        assert len(lost) == 2  # 2 map slots on the node
        jip = jt.workflows["w"].jobs["a"]
        assert jip.running_maps == 6
        sim.run()
        assert jt.workflows["w"].done
        assert jip.maps_finished == 8

    def test_completed_map_outputs_invalidated(self):
        sim, jt = rig(nodes=4)
        jt.submit_workflow(wide(maps=8, reduces=4), use_submitter=False)
        jt.submit_wjob("w", "a")
        sim.run(until=10.0)  # all maps done at t=10
        jip = jt.workflows["w"].jobs["a"]
        assert jip.map_phase_done
        before = jip.maps_finished
        jt.kill_tracker(0)
        # the two maps that ran on tracker 0 must re-execute
        assert jip.maps_finished == before - 2
        assert not jip.reduces_ready
        sim.run()
        assert jt.workflows["w"].done

    def test_completed_job_outputs_survive(self):
        sim, jt = rig(nodes=4)
        jt.submit_workflow(wide(maps=4, reduces=2), use_submitter=False)
        jt.submit_wjob("w", "a")
        sim.run()
        assert jt.workflows["w"].done
        finish = jt.workflows["w"].completion_time
        jt.kill_tracker(0)  # job already finished: nothing re-runs
        sim.run()
        assert jt.workflows["w"].completion_time == finish

    def test_capacity_accounting_after_kill_and_revive(self):
        sim, jt = rig(nodes=2)
        from repro.cluster.tasks import TaskKind

        assert jt.free_slots(TaskKind.MAP) == 4
        jt.kill_tracker(1)
        assert jt.free_slots(TaskKind.MAP) == 2
        assert jt.free_slots(TaskKind.REDUCE) == 1
        jt.revive_tracker(1)
        assert jt.free_slots(TaskKind.MAP) == 4

    def test_double_kill_rejected(self):
        sim, jt = rig()
        jt.kill_tracker(0)
        with pytest.raises(ValueError):
            jt.kill_tracker(0)
        jt.revive_tracker(0)
        with pytest.raises(ValueError):
            jt.revive_tracker(0)

    def test_rho_decremented_for_lost_tasks(self):
        sim, jt = rig(nodes=4)
        jt.submit_workflow(wide(), use_submitter=False)
        jt.submit_wjob("w", "a")
        sim.run(until=5.0)
        wip = jt.workflows["w"]
        rho_before = wip.scheduled_tasks
        lost = jt.kill_tracker(0)
        assert wip.scheduled_tasks == rho_before - len(lost)

    def test_kill_and_revive_within_one_interval_keep_one_tick_chain(self):
        # The dead chain's pending tick must not survive the revive: if it
        # fired on the living tracker it would re-arm beside the revive's
        # own chain and the tracker would tick twice per interval.
        sim = Simulator()
        config = ClusterConfig(num_nodes=3, heartbeat_interval=3.0, eager_heartbeats=False)
        jt = JobTracker(sim, config, FifoScheduler())
        ticks = []
        tick = jt._heartbeat_tick

        def spy(tracker):
            if tracker.tracker_id == 0:
                ticks.append(sim.now)
            tick(tracker)

        jt._heartbeat_tick = spy
        jt.start_heartbeats()  # tracker 0's first tick is due at t=1.0
        sim.run(until=0.5)
        jt.kill_tracker(0)
        jt.revive_tracker(0)
        sim.run(until=12.0)
        assert ticks == [3.5, 6.5, 9.5]


class TestWohaUnderFailure:
    def test_submit_task_loss_rearms_submission(self):
        sim = Simulator()
        config = ClusterConfig(
            num_nodes=1,
            map_slots_per_node=1,
            reduce_slots_per_node=1,
            heartbeat_interval=float("inf"),
            submit_task_duration=5.0,
        )
        jt = JobTracker(sim, config, WohaScheduler())
        wf = WorkflowBuilder("w").job("a", maps=1, reduces=0, map_s=10).build()
        jt.submit_workflow(wf, plan=None, use_submitter=True)
        sim.run(until=2.0)  # submit task for "a" is mid-flight
        jt.kill_tracker(0)
        sim.run(until=3.0)
        jt.revive_tracker(0)
        sim.run()
        assert jt.workflows["w"].done

    def test_full_workflow_completes_despite_outages(self):
        config = ClusterConfig(
            num_nodes=6, map_slots_per_node=2, reduce_slots_per_node=1, heartbeat_interval=float("inf")
        )
        sim = ClusterSimulation(config, WohaScheduler(), submission="woha", planner=make_planner())
        injector = FailureInjector(sim.sim, sim.jobtracker)
        injector.schedule(
            [Outage(time=15.0, tracker_id=0, down_for=40.0), Outage(time=30.0, tracker_id=3, down_for=None)]
        )
        wf = (
            WorkflowBuilder("w")
            .job("a", maps=12, reduces=4, map_s=10, reduce_s=20)
            .job("b", maps=6, reduces=2, map_s=10, reduce_s=20, after=["a"])
            .build()
        )
        sim.add_workflow(wf)
        result = sim.run()
        assert result.stats["w"].completion_time < float("inf")
        assert injector.killed and injector.revived


class TestInjector:
    def test_random_outages_seeded(self):
        sim, jt = rig(nodes=4)
        injector = FailureInjector(sim, jt)
        a = injector.random_outages(horizon=3600.0, rate_per_hour=10.0, seed=3)
        sim2, jt2 = rig(nodes=4)
        b = FailureInjector(sim2, jt2).random_outages(horizon=3600.0, rate_per_hour=10.0, seed=3)
        assert a == b
        assert all(0.0 < o.time < 3600.0 for o in a)

    def test_zero_rate_yields_nothing(self):
        sim, jt = rig()
        assert FailureInjector(sim, jt).random_outages(3600.0, 0.0) == []

    def test_unknown_tracker_rejected(self):
        sim, jt = rig(nodes=2)
        injector = FailureInjector(sim, jt)
        with pytest.raises(ValueError):
            injector.schedule([Outage(time=1.0, tracker_id=9)])

    def test_overlapping_outage_ignored(self):
        sim, jt = rig(nodes=2)
        injector = FailureInjector(sim, jt)
        injector.schedule(
            [Outage(time=1.0, tracker_id=0, down_for=100.0), Outage(time=2.0, tracker_id=0, down_for=100.0)]
        )
        sim.run(until=50.0)
        assert len(injector.killed) == 1


class TestFailureSchedule:
    """Satellite bar (ISSUE 6): scripted outages must wake quiescent-parked
    heartbeat timers, so parking on/off stays byte-identical under them."""

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="negative"):
            FailureSchedule((Outage(time=-1.0, tracker_id=0),))

    def test_rejects_nonpositive_downtime(self):
        with pytest.raises(ValueError, match="positive"):
            FailureSchedule((Outage(time=1.0, tracker_id=0, down_for=0.0),))

    def test_validate_checks_tracker_ids(self):
        schedule = FailureSchedule((Outage(time=1.0, tracker_id=9),))
        with pytest.raises(ValueError, match="tracker 9"):
            schedule.validate(4)

    def test_apply_schedules_and_returns_injector(self):
        sim, jt = rig(nodes=4)
        jt.submit_workflow(wide(), use_submitter=False)
        jt.submit_wjob("w", "a")
        schedule = FailureSchedule((Outage(time=5.0, tracker_id=0, down_for=10.0),))
        injector = schedule.apply(sim, jt)
        sim.run(until=30.0)
        assert injector.killed and injector.revived

    @staticmethod
    def _run_scripted():
        """Long tasks with a 3 s heartbeat: timers park almost immediately,
        then a scripted outage must wake them (kill at t=40, revive t=100)."""
        config = ClusterConfig(
            num_nodes=4,
            map_slots_per_node=2,
            reduce_slots_per_node=1,
            heartbeat_interval=3.0,
        )
        sim = ClusterSimulation(config, FifoScheduler(), trace=True)
        sim.add_workflows(
            [
                WorkflowBuilder("w0")
                .job("a", maps=8, reduces=4, map_s=200.0, reduce_s=100.0)
                .deadline(relative=2000.0)
                .build()
            ]
        )
        schedule = FailureSchedule((Outage(time=40.0, tracker_id=0, down_for=60.0),))
        schedule.apply(sim.sim, sim.jobtracker)
        return sim.run()

    def test_parking_on_off_byte_identical_under_scripted_outage(self, monkeypatch):
        fast = self._run_scripted()
        use_unparked_heartbeats(monkeypatch)
        reference = self._run_scripted()
        assert fast.tracer.dumps_jsonl() == reference.tracer.dumps_jsonl()
        assert fast.stats == reference.stats
        assert fast.makespan == reference.makespan
        # The outage actually bit (attempts died) and parking actually
        # parked (the fast run shed tick events) — the regression is only
        # meaningful if both mechanisms engaged.
        assert fast.metrics.tasks_lost > 0
        assert fast.events_processed < reference.events_processed
