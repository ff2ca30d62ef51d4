"""Unit tests for the WOHA client (validate -> plan -> submit)."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.jobtracker import JobTracker
from repro.core.client import WohaClient, make_planner
from repro.core.plancache import PlanCache
from repro.core.scheduler import WohaScheduler
from repro.events import Simulator
from repro.hdfs import HdfsNamespace
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.model import WorkflowValidationError
from repro.workflow.xmlconfig import workflow_to_xml


@pytest.fixture
def rig():
    sim = Simulator()
    config = ClusterConfig(
        num_nodes=2, map_slots_per_node=2, reduce_slots_per_node=1, heartbeat_interval=float("inf")
    )
    jt = JobTracker(sim, config, WohaScheduler())
    return sim, jt


def wf_with_paths():
    return (
        WorkflowBuilder("p")
        .job(
            "a",
            maps=2,
            reduces=1,
            map_s=10,
            reduce_s=10,
            inputs=["/data/in"],
            outputs=["/stage/a"],
            jar_path="/jars/a.jar",
        )
        .job("b", maps=1, reduces=0, map_s=5, inputs=["/stage/a"], after=["a"])
        .deadline(relative=200)
        .build()
    )


class TestValidation:
    def test_all_present_passes(self, rig):
        sim, jt = rig
        hdfs = HdfsNamespace()
        hdfs.preload(["/data/in", "/jars/a.jar"])
        client = WohaClient(jt, hdfs=hdfs)
        report = client.validate(wf_with_paths())
        assert report.ok

    def test_missing_input_reported(self, rig):
        sim, jt = rig
        hdfs = HdfsNamespace()
        hdfs.preload(["/jars/a.jar"])
        client = WohaClient(jt, hdfs=hdfs)
        report = client.validate(wf_with_paths())
        assert report.missing_inputs == ("/data/in",)

    def test_missing_jar_reported(self, rig):
        sim, jt = rig
        hdfs = HdfsNamespace()
        hdfs.preload(["/data/in"])
        client = WohaClient(jt, hdfs=hdfs)
        report = client.validate(wf_with_paths())
        assert report.missing_jars == ("/jars/a.jar",)

    def test_intra_workflow_outputs_exempt(self, rig):
        """b's input /stage/a is produced by a, so it must not be flagged."""
        sim, jt = rig
        hdfs = HdfsNamespace()
        hdfs.preload(["/data/in", "/jars/a.jar"])
        client = WohaClient(jt, hdfs=hdfs)
        assert client.validate(wf_with_paths()).missing_inputs == ()

    def test_no_hdfs_skips_validation(self, rig):
        sim, jt = rig
        client = WohaClient(jt, hdfs=None)
        assert client.validate(wf_with_paths()).ok

    def test_submit_rejects_invalid(self, rig):
        sim, jt = rig
        client = WohaClient(jt, hdfs=HdfsNamespace())
        with pytest.raises(WorkflowValidationError, match="missing inputs"):
            client.submit(wf_with_paths())


class TestPlanning:
    def test_generate_plan_uses_master_slot_count(self, rig):
        sim, jt = rig
        client = WohaClient(jt)
        plan = client.generate_plan(wf_with_paths())
        assert plan.resource_cap <= jt.total_slots
        assert plan.entries[-1].cum_req == 4

    def test_cap_search_disabled_plans_full_size(self, rig):
        sim, jt = rig
        client = WohaClient(jt, cap_search=False)
        plan = client.generate_plan(wf_with_paths())
        assert plan.resource_cap == jt.total_slots

    def test_unknown_prioritizer_rejected(self, rig):
        sim, jt = rig
        with pytest.raises(ValueError, match="unknown prioritizer"):
            WohaClient(jt, prioritizer="zpf")

    def test_callable_prioritizer_accepted(self, rig):
        sim, jt = rig
        client = WohaClient(jt, prioritizer=lambda w: tuple(reversed(w.topological_order())))
        plan = client.generate_plan(wf_with_paths())
        assert plan.job_order == ("b", "a")


class TestSubmission:
    def test_submit_end_to_end(self, rig):
        sim, jt = rig
        client = WohaClient(jt)
        wip = client.submit(wf_with_paths())
        assert wip.plan is not None
        sim.run()
        assert wip.done

    def test_submit_xml_path(self, rig):
        sim, jt = rig
        client = WohaClient(jt)
        xml = workflow_to_xml(wf_with_paths())
        wip = client.submit_xml(xml)
        sim.run()
        assert wip.done


class TestMakePlanner:
    def test_planner_standalone(self):
        planner = make_planner("hlf")
        plan = planner(wf_with_paths(), 12)
        assert plan.resource_cap <= 12

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_planner("nope")

    def test_unknown_pool_rejected(self):
        with pytest.raises(ValueError, match="unknown pool mode"):
            make_planner(pool="sharded")

    def test_configurations_key_apart_on_a_shared_cache(self):
        # The mode tuple separates planner configurations: one shared
        # cache builds once per configuration and then hits for each.
        cache = PlanCache()
        planners = [
            make_planner(plan_cache=cache),
            make_planner(pool="split", plan_cache=cache),
            make_planner(cap_search=False, plan_cache=cache),
        ]
        first = [planner(wf_with_paths(), 12) for planner in planners]
        assert (cache.misses, cache.hits) == (3, 0)
        again = [planner(wf_with_paths(), 12) for planner in planners]
        assert (cache.misses, cache.hits) == (3, 3)
        assert all(a is b for a, b in zip(first, again))
