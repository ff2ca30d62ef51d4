"""Tests for the WOHA Workflow Scheduler (Algorithm 2)."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.tasks import TaskKind
from repro.core.client import make_planner
from repro.core.scheduler import NaiveWohaScheduler, WohaScheduler
from repro.workflow.builder import WorkflowBuilder


def run_woha(workflows, scheduler, config=None, planner=None):
    config = config or ClusterConfig(
        num_nodes=2, map_slots_per_node=2, reduce_slots_per_node=1, heartbeat_interval=float("inf")
    )
    sim = ClusterSimulation(config, scheduler, submission="woha", planner=planner or make_planner("lpf"))
    sim.add_workflows(workflows)
    return sim.run()


def wide(name, maps, submit=0.0, deadline=None, map_s=10.0):
    b = WorkflowBuilder(name).job("a", maps=maps, reduces=0, map_s=map_s).submit_at(submit)
    if deadline is not None:
        b.deadline(relative=deadline)
    return b.build()


class TestBasicOperation:
    def test_single_workflow_completes(self, small_workflow):
        result = run_woha([small_workflow], WohaScheduler())
        assert result.stats["wf"].met_deadline

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown queue backend"):
            WohaScheduler(queue_backend="btree")

    def test_all_backends_identical_schedules(self, small_workflow):
        results = {}
        for backend in ("dsl", "bst"):
            wfs = [
                small_workflow.renamed("w1"),
                small_workflow.renamed("w2").with_timing(5.0, 250.0),
            ]
            result = run_woha(wfs, WohaScheduler(queue_backend=backend))
            results[backend] = {k: v.completion_time for k, v in result.stats.items()}
        assert results["dsl"] == results["bst"]

    def test_naive_scheduler_matches_dsl(self, small_workflow):
        wfs = [
            small_workflow.renamed("w1"),
            small_workflow.renamed("w2").with_timing(5.0, 250.0),
        ]
        dsl = run_woha([w.renamed(w.name) for w in wfs], WohaScheduler())
        naive = run_woha([w.renamed(w.name) for w in wfs], NaiveWohaScheduler())
        assert {k: v.completion_time for k, v in dsl.stats.items()} == {
            k: v.completion_time for k, v in naive.stats.items()
        }

    def test_queue_empties_after_completion(self, small_workflow):
        scheduler = WohaScheduler()
        run_woha([small_workflow], scheduler)
        assert scheduler.queue_length() == 0
        scheduler.check_invariants()


class TestLagPrioritization:
    def test_behind_plan_workflow_preempts_ahead_one(self):
        """A late-submitted tight workflow overtakes an early loose one."""
        loose = wide("loose", maps=16, submit=0.0, deadline=1000.0)
        tight = wide("tight", maps=8, submit=20.0, deadline=60.0)
        result = run_woha([loose, tight], WohaScheduler())
        assert result.stats["tight"].met_deadline
        assert result.stats["loose"].met_deadline

    def test_best_effort_workflow_yields_to_planned(self):
        best_effort = wide("be", maps=16, submit=0.0, deadline=None)
        urgent = wide("urgent", maps=8, submit=0.0, deadline=40.0)
        result = run_woha([best_effort, urgent], WohaScheduler())
        assert result.stats["urgent"].met_deadline
        # Work conservation: best-effort still finishes.
        assert result.stats["be"].completion_time < float("inf")

    @pytest.mark.parametrize("scheduler_factory", [WohaScheduler, NaiveWohaScheduler])
    def test_deserialized_infeasible_plan_sorts_behind_feasible(self, scheduler_factory):
        """Regression for the from_bytes feasibility drop: a plan marked
        infeasible must stay demoted after a wire round-trip.  Before the
        fix, deserialisation silently reset ``feasible=True`` and the doomed
        workflow (tighter deadline, bigger lag) would outrank the planned
        one."""
        from dataclasses import replace

        from repro.core.progress import ProgressPlan

        base = make_planner("lpf")

        def planner(workflow, slots):
            plan = base(workflow, slots)
            if workflow.name == "doomed":
                plan = replace(plan, feasible=False)
            # Ship every plan over the wire, as the real client would.
            return ProgressPlan.from_bytes(plan.to_bytes())

        doomed = wide("doomed", maps=8, submit=0.0, deadline=60.0)
        planned = wide("planned", maps=8, submit=0.0, deadline=200.0)
        result = run_woha([doomed, planned], scheduler_factory(), planner=planner)
        assert result.stats["planned"].met_deadline
        assert (
            result.stats["planned"].completion_time
            < result.stats["doomed"].completion_time
        )

    def test_work_conserving_when_top_workflow_stalls(self):
        """Head workflow with no runnable tasks must not idle the cluster."""
        # chain workflow: between phases it has nothing runnable.
        chain = (
            WorkflowBuilder("chain")
            .job("a", maps=1, reduces=1, map_s=10, reduce_s=30)
            .job("b", maps=1, reduces=1, map_s=10, reduce_s=30, after=["a"])
            .deadline(relative=90.0)
            .build()
        )
        filler = wide("filler", maps=40, deadline=None, map_s=5.0)
        result = run_woha([chain, filler], WohaScheduler())
        assert result.stats["chain"].met_deadline
        # The filler's 40 maps on 4 slots need 50s; chain only ever takes
        # one map slot at a time, so the filler must finish close to its
        # 50s bound — if the scheduler idled slots while the chain stalled
        # between phases, the filler would stretch far beyond this.
        assert result.stats["filler"].completion_time <= 65.0


class TestProgressAccounting:
    def test_rho_equals_launched_wjob_tasks(self, small_workflow):
        scheduler = WohaScheduler()
        config = ClusterConfig(
            num_nodes=2, map_slots_per_node=2, reduce_slots_per_node=1, heartbeat_interval=float("inf")
        )
        sim = ClusterSimulation(config, scheduler, submission="woha", planner=make_planner())
        sim.add_workflow(small_workflow)
        sim.run()
        wip = sim.jobtracker.workflows["wf"]
        assert wip.scheduled_tasks == small_workflow.total_tasks

    def test_assign_calls_counted(self, small_workflow):
        scheduler = WohaScheduler()
        run_woha([small_workflow], scheduler)
        assert scheduler.assign_calls > 0


class TestHeartbeatMode:
    def test_woha_works_with_periodic_heartbeats(self, small_workflow, heartbeat_cluster):
        result = run_woha([small_workflow], WohaScheduler(), config=heartbeat_cluster)
        assert result.stats["wf"].completion_time < float("inf")
