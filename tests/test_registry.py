"""Tests for the workflow-scheduler.xml plug-in registry."""

import math

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import ClusterSimulation
from repro.core.client import make_planner
from repro.core.plancache import PlanCache
from repro.core.scheduler import WohaScheduler
from repro.registry import (
    PLAN_GENERATOR_REGISTRY,
    SCHEDULER_REGISTRY,
    STACK_NAMES,
    STACKS,
    ConfigError,
    make_stack,
    parse_scheduler_config,
    register_plan_generator,
    register_scheduler,
)
from repro.schedulers.base import WorkflowScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.workflow.builder import WorkflowBuilder

PRIORITIZERS = {stack.name: stack.prioritizer for stack in STACKS}
WOHA_STACKS = [name for name, prioritizer in PRIORITIZERS.items() if prioritizer is not None]


class TestParse:
    def test_default_woha_stack(self):
        scheduler, planner = parse_scheduler_config(
            "<workflow-scheduler><scheduler>woha-dsl</scheduler>"
            "<plan-generator>lpf-capped</plan-generator></workflow-scheduler>"
        )
        assert isinstance(scheduler, WohaScheduler)
        assert scheduler.queue_backend == "dsl"
        assert callable(planner)

    def test_baseline_without_planner(self):
        scheduler, planner = parse_scheduler_config(
            "<workflow-scheduler><scheduler>fifo</scheduler></workflow-scheduler>"
        )
        assert isinstance(scheduler, FifoScheduler)
        assert planner is None

    def test_two_line_swap(self):
        """The paper's claim: switching implementations is a two-line edit."""
        base = "<workflow-scheduler><scheduler>{}</scheduler><plan-generator>{}</plan-generator></workflow-scheduler>"
        a, _ = parse_scheduler_config(base.format("woha-dsl", "hlf-capped"))
        b, _ = parse_scheduler_config(base.format("woha-bst", "mpf-capped"))
        assert a.queue_backend == "dsl" and b.queue_backend == "bst"

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheduler"):
            parse_scheduler_config(
                "<workflow-scheduler><scheduler>magic</scheduler></workflow-scheduler>"
            )

    def test_unknown_planner_rejected(self):
        with pytest.raises(ConfigError, match="unknown plan generator"):
            parse_scheduler_config(
                "<workflow-scheduler><scheduler>fifo</scheduler>"
                "<plan-generator>magic</plan-generator></workflow-scheduler>"
            )

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_scheduler_config("<workflow-scheduler><scheduler>")

    def test_wrong_root_rejected(self):
        with pytest.raises(ConfigError, match="root element"):
            parse_scheduler_config("<config/>")

    def test_missing_scheduler_rejected(self):
        with pytest.raises(ConfigError, match="missing <scheduler>"):
            parse_scheduler_config("<workflow-scheduler/>")


class TestRegistration:
    def test_register_custom_scheduler(self):
        class MyScheduler(FifoScheduler):
            pass

        register_scheduler("my-sched-test", MyScheduler)
        try:
            scheduler, _ = parse_scheduler_config(
                "<workflow-scheduler><scheduler>my-sched-test</scheduler></workflow-scheduler>"
            )
            assert isinstance(scheduler, MyScheduler)
        finally:
            del SCHEDULER_REGISTRY["my-sched-test"]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_scheduler("fifo", FifoScheduler)

    def test_replace_flag_allows_override(self):
        original = SCHEDULER_REGISTRY["fifo"]
        try:
            register_scheduler("fifo", FifoScheduler, replace=True)
        finally:
            SCHEDULER_REGISTRY["fifo"] = original

    def test_register_custom_planner(self):
        register_plan_generator("null-test", lambda: None)
        try:
            _, planner = parse_scheduler_config(
                "<workflow-scheduler><scheduler>fifo</scheduler>"
                "<plan-generator>null-test</plan-generator></workflow-scheduler>"
            )
            assert planner is None
        finally:
            del PLAN_GENERATOR_REGISTRY["null-test"]

    def test_all_registered_schedulers_instantiate(self):
        for name, factory in SCHEDULER_REGISTRY.items():
            assert isinstance(factory(), WorkflowScheduler), name

    def test_all_registered_planners_instantiate(self):
        for name, factory in PLAN_GENERATOR_REGISTRY.items():
            planner = factory()
            assert planner is None or callable(planner), name


def small_workload():
    """A deadline workflow with a two-job chain, and a best-effort filler."""
    chain = (
        WorkflowBuilder("chain")
        .job("x", maps=3, reduces=1, map_s=8, reduce_s=15)
        .job("y", maps=2, reduces=1, map_s=8, reduce_s=15, after=["x"])
        .job("z", maps=4, reduces=2, map_s=6, reduce_s=10)
        .deadline(relative=200.0)
        .build()
    )
    filler = WorkflowBuilder("filler").job("f", maps=6, reduces=0, map_s=12).submit_at(2.0).build()
    return [chain, filler]


def orders_workflow():
    """A workflow HLF, MPF and LPF each order differently: the chain d1-d3
    is deepest, hub has the most dependents, long has the longest path."""
    return (
        WorkflowBuilder("orders")
        .job("d1", maps=1, reduces=0, map_s=3)
        .job("d2", maps=1, reduces=0, map_s=3, after=["d1"])
        .job("d3", maps=1, reduces=0, map_s=3, after=["d2"])
        .job("hub", maps=2, reduces=0, map_s=2)
        .job("h1", maps=2, reduces=0, map_s=2, after=["hub"])
        .job("h2", maps=2, reduces=0, map_s=2, after=["hub"])
        .job("h3", maps=2, reduces=0, map_s=2, after=["hub"])
        .job("long", maps=1, reduces=1, map_s=30, reduce_s=20)
        .deadline(relative=300.0)
        .build()
    )


class TestStacks:
    def test_table_is_in_the_paper_plotting_order(self):
        assert STACK_NAMES == ("edf", "fifo", "fair", "woha-hlf", "woha-mpf", "woha-lpf")
        assert [stack.label for stack in STACKS] == [
            "EDF", "FIFO", "Fair", "WOHA-HLF", "WOHA-MPF", "WOHA-LPF",
        ]
        assert list(PRIORITIZERS.values()) == [None, None, None, "hlf", "mpf", "lpf"]

    def test_unknown_stack_rejected_naming_the_choices(self):
        with pytest.raises(ValueError, match=r"unknown scheduler stack 'magic'.*'woha-lpf'"):
            make_stack("magic")

    @pytest.mark.parametrize("name", STACK_NAMES)
    def test_mode_is_woha_exactly_when_planned(self, name):
        scheduler, mode, planner = make_stack(name)
        assert isinstance(scheduler, WorkflowScheduler)
        if PRIORITIZERS[name] is None:
            assert (mode, planner) == ("oozie", None)
        else:
            assert mode == "woha" and callable(planner)
            assert isinstance(scheduler, WohaScheduler)

    @pytest.mark.parametrize("name", STACK_NAMES)
    def test_each_call_builds_afresh(self, name):
        first, second = make_stack(name), make_stack(name)
        assert first[0] is not second[0]
        assert first[2] is None or first[2] is not second[2]

    @pytest.mark.parametrize("name", STACK_NAMES)
    def test_runs_every_workflow_to_completion(self, name):
        scheduler, mode, planner = make_stack(name)
        config = ClusterConfig(num_nodes=2, map_slots_per_node=2, reduce_slots_per_node=1)
        sim = ClusterSimulation(config, scheduler, submission=mode, planner=planner)
        workflows = small_workload()
        sim.add_workflows(workflows)
        result = sim.run()
        assert sorted(result.stats) == ["chain", "filler"]
        for stats in result.stats.values():
            assert math.isfinite(stats.completion_time)
            assert stats.completion_time > stats.submit_time
        tasks = sum(w.total_tasks for w in workflows)
        if mode == "woha":
            tasks += sum(len(w) for w in workflows)  # one submitter task per wjob
        assert result.metrics.tasks_completed == tasks

    @pytest.mark.parametrize("pool", ["pooled", "split"])
    @pytest.mark.parametrize("name", WOHA_STACKS)
    def test_plans_with_the_stack_prioritizer(self, name, pool):
        _, _, planner = make_stack(name, pool=pool)
        workflow = orders_workflow()
        plans = {p: make_planner(p, pool=pool)(workflow, 4) for p in ("hlf", "mpf", "lpf")}
        matches = [p for p, plan in plans.items() if plan == planner(workflow, 4)]
        assert matches == [PRIORITIZERS[name]]

    @pytest.mark.parametrize("name", WOHA_STACKS)
    def test_plans_through_the_given_cache(self, name):
        cache = PlanCache()
        _, _, planner = make_stack(name, plan_cache=cache)
        workflow = orders_workflow()
        first = planner(workflow, 4)
        assert planner(workflow, 4) == first
        assert (cache.misses, cache.hits) == (1, 1)
