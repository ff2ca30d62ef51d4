"""Unit tests for the quiescent-heartbeat park/wake protocol (DESIGN.md §10)."""

import math

from repro.cluster.config import ClusterConfig
from repro.cluster.jobtracker import JobTracker
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.tasks import TaskKind
from repro.core.client import make_planner
from repro.core.scheduler import WohaScheduler
from repro.events import Simulator
from repro.experiments.scenarios import SCENARIOS
from repro.schedulers.fifo import FifoScheduler
from repro.workflow.builder import WorkflowBuilder

from tests.reference_assignment import has_runnable, use_unparked_heartbeats


class CountingFifo(FifoScheduler):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def select_task(self, kind, now):
        self.calls += 1
        return super().select_task(kind, now)


def make_jt(interval=3.0, eager=True, nodes=3, scheduler=None):
    sim = Simulator()
    config = ClusterConfig(num_nodes=nodes, heartbeat_interval=interval, eager_heartbeats=eager)
    jt = JobTracker(sim, config, scheduler or FifoScheduler())
    return sim, jt


def diamond():
    return (
        WorkflowBuilder("wf")
        .job("a", maps=2, reduces=1, map_s=10, reduce_s=10)
        .job("b", maps=1, reduces=1, map_s=5, reduce_s=5, after=["a"])
        .build()
    )


def heartbeat_tick_times(sim, jt):
    """Pending heartbeat-tick event times, sorted."""
    return sorted(
        time
        for time, _seq, handle in sim._queue
        if handle.pending
        and getattr(handle.callback, "__func__", None) is JobTracker._heartbeat_tick
    )


class TestParking:
    def test_idle_trackers_park(self):
        sim, jt = make_jt()
        jt.start_heartbeats()
        sim.run(until=10.0)
        assert sim.pending_events == 0
        assert sorted(jt._parked) == [0, 1, 2]

    def test_unparked_oracle_never_parks(self, monkeypatch):
        use_unparked_heartbeats(monkeypatch)
        sim, jt = make_jt()
        jt.start_heartbeats()
        sim.run(until=10.0)
        assert sim.pending_events == 3
        assert not jt._parked

    def test_tracker_with_servable_slot_is_not_quiescent(self):
        scheduler = FifoScheduler()
        sim, jt = make_jt(scheduler=scheduler)
        tracker = jt.trackers[0]
        assert tracker.free_map_slots > 0 and tracker.free_reduce_slots > 0
        scheduler.maybe_map, scheduler.maybe_reduce = True, False
        assert not jt._tracker_quiescent(tracker)
        scheduler.maybe_map, scheduler.maybe_reduce = False, True
        assert not jt._tracker_quiescent(tracker)
        scheduler.maybe_map, scheduler.maybe_reduce = False, False
        assert jt._tracker_quiescent(tracker)

    def test_no_parking_without_eager_heartbeats(self):
        # Parking is only provably invisible under eager heartbeats; with
        # them off the periodic loop must keep driving assignment.
        sim, jt = make_jt(eager=False)
        jt.start_heartbeats()
        sim.run(until=10.0)
        assert sim.pending_events == 3
        assert not jt._parked

    def test_submission_round_that_proves_idle_leaves_trackers_parked(self):
        sim, jt = make_jt()
        jt.start_heartbeats()
        sim.run(until=10.0)
        assert sorted(jt._parked) == [0, 1, 2]
        jt.submit_workflow(diamond())
        # The eager round launched the one runnable submit task and proved
        # both kinds idle: a tick now would find nothing, so none is armed.
        assert sorted(jt._parked) == [0, 1, 2]
        assert heartbeat_tick_times(sim, jt) == []

    def test_plan_install_wakes_parked_on_original_grid(self):
        sim, jt = make_jt()
        jt.start_heartbeats()
        sim.run(until=10.0)
        assert sorted(jt._parked) == [0, 1, 2]
        jt.notify_plan_installed()
        assert not jt._parked
        # Offsets were 1, 2, 3 (interval 3 over 3 trackers): the woken
        # timers land on the next grid points after t=10, not at 10+3.
        assert heartbeat_tick_times(sim, jt) == [11.0, 12.0, 13.0]

    def test_idle_periodic_cluster_ticks_once_per_tracker(self, monkeypatch):
        # Each tracker's first staggered tick parks its timer; every later
        # round ends saturated or proven idle, so no wake re-arms one.
        ticks = []
        tick = JobTracker._heartbeat_tick

        def counting_tick(self, tracker):
            ticks.append(tracker.tracker_id)
            tick(self, tracker)

        monkeypatch.setattr(JobTracker, "_heartbeat_tick", counting_tick)
        config = ClusterConfig(
            num_nodes=500, map_slots_per_node=2, reduce_slots_per_node=1, heartbeat_interval=3.0
        )
        simulation = ClusterSimulation(
            config, WohaScheduler(), submission="woha", planner=make_planner("lpf")
        )
        simulation.add_workflows(SCENARIOS["periodic"](0, 1.0)[0])
        result = simulation.run()
        assert all(math.isfinite(s.completion_time) for s in result.stats.values())
        assert len(ticks) <= config.num_nodes

    def test_all_trackers_repark_after_drain(self):
        sim, jt = make_jt()
        jt.start_heartbeats()
        jt.submit_workflow(diamond())
        sim.run()  # terminates: every timer parks once the workflow is done
        assert sim.pending_events == 0
        assert sorted(jt._parked) == [0, 1, 2]
        assert jt.workflows["wf"].completion_time is not None

    def test_killed_parked_tracker_is_unparked_and_revive_rearms(self):
        sim, jt = make_jt()
        jt.start_heartbeats()
        sim.run(until=10.0)
        jt.kill_tracker(0)
        assert 0 not in jt._parked
        jt.revive_tracker(0)
        assert 0 not in jt._parked
        # The revived tracker's timer is live again.
        assert sim.pending_events >= 1


class TestRunnabilityHints:
    def test_heartbeat_gating_skips_proven_idle_select_task(self):
        scheduler = CountingFifo()
        sim, jt = make_jt(scheduler=scheduler)
        before = scheduler.calls
        jt.heartbeat(jt.trackers[0])  # one probe per kind, both idle
        assert scheduler.calls == before + 2
        jt.heartbeat(jt.trackers[0])  # both kinds now gated
        assert scheduler.calls == before + 2

    def test_state_change_reopens_the_gate(self):
        scheduler = CountingFifo()
        sim, jt = make_jt(scheduler=scheduler)
        jt.heartbeat(jt.trackers[0])
        assert not has_runnable(scheduler, TaskKind.MAP)
        assert not has_runnable(scheduler, TaskKind.REDUCE)
        jt.submit_workflow(diamond())
        # The submission marked the scheduler dirty (and the eager round
        # drained it back to proven-idle for whatever cannot run yet).
        assert scheduler.calls > 2


class TestPickTrackerRing:
    def test_round_robin_skips_dead_trackers(self):
        sim, jt = make_jt(nodes=5, interval=float("inf"))
        jt.kill_tracker(1)
        jt.kill_tracker(3)
        picks = [jt._pick_tracker(TaskKind.MAP).tracker_id for _ in range(6)]
        assert picks == [0, 2, 4, 0, 2, 4]

    def test_ring_matches_slot_occupancy(self):
        sim, jt = make_jt(nodes=2, interval=float("inf"))
        jt.submit_workflow(diamond())  # eagerly launches a's maps + submit tasks
        for tracker in jt.trackers:
            bit = 1 << tracker.tracker_id
            assert bool(jt._free_mask_map & bit) == (tracker.free_map_slots > 0)
            assert bool(jt._free_mask_reduce & bit) == (tracker.free_reduce_slots > 0)


class TestIncrementalBookkeeping:
    def test_ready_and_active_track_transitions(self):
        sim, jt = make_jt(interval=float("inf"))
        wf = diamond()
        wip = jt.submit_workflow(wf, use_submitter=False)
        assert wip.ready_wjobs() == ["a"]
        assert wip.active_jobs() == []
        assert jt.running_wjob_count() == 0
        jt.submit_wjob("wf", "a")
        assert wip.ready_wjobs() == []
        assert [j.name for j in wip.active_jobs()] == ["a"]
        assert jt.running_wjob_count() == 1
        sim.run()
        # 'a' finished, unlocking 'b'; nothing submitted it (no submitter,
        # no Oozie listener here), so it sits in the ready set.
        assert wip.ready_wjobs() == ["b"]
        assert wip.active_jobs() == []
        assert jt.running_wjob_count() == 0
        jt.submit_wjob("wf", "b")
        sim.run()
        assert wip.ready_wjobs() == []
        assert wip.done
        assert jt.running_wjob_count() == 0
