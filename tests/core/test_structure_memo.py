"""The per-workflow memo of structure-derived values (``Workflow.derived``).

The §V-C orders, the longest-path weights and the plan-cache structure key
are pure functions of a workflow's DAG, computed once per object and then
shared by every consumer.  These tests pin the two things that sharing
relies on: the memoized value is what a fresh computation gives, and no
consumer mutates it.
"""

import asyncio
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import priorities
from repro.core.capsearch import find_min_cap, find_min_cap_split
from repro.core.plancache import PlanCache
from repro.core.plangen import _SimProblem, generate_requirements
from repro.core.priorities import PRIORITIZERS
from repro.serve.service import PlanningService, ServiceConfig
from repro.workflow import dag
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.model import Workflow
from repro.workflow.xmlconfig import workflow_to_xml
from tests.strategies import workflows


def twin(workflow):
    """An equal-but-distinct workflow: same description, fresh objects."""
    return Workflow(
        workflow.name,
        [dataclasses.replace(job) for job in workflow.jobs],
        submit_time=workflow.submit_time,
        deadline=workflow.deadline,
    )


STRUCTURE_FUNCTIONS = {
    **{f"{name}_order": fn for name, fn in PRIORITIZERS.items()},
    "longest_path_weights": dag.longest_path_weights,
    "fingerprint": lambda w: PlanCache.fingerprint(w, w.job_names(), 24, ("lpf",))[0],
    "total_work": lambda w: w.total_work,
}


@given(workflows(), st.sampled_from(sorted(STRUCTURE_FUNCTIONS)))
@settings(max_examples=150, deadline=None)
def test_memoized_value_is_a_fresh_computation_and_is_shared(workflow, which):
    fn = STRUCTURE_FUNCTIONS[which]
    first = fn(workflow)
    assert fn(workflow) is first
    assert first == fn(twin(workflow))


@given(workflows(with_deadline=True), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_no_consumer_mutates_the_shared_weights(workflow, slots):
    weights = dag.longest_path_weights(workflow)
    order = priorities.lpf_order(workflow)
    problem = _SimProblem(workflow, order)
    problem.run(slots, pooled=True)
    problem.critical_chain
    find_min_cap(workflow, slots, workflow.relative_deadline, order, problem=problem)
    find_min_cap_split(
        workflow, slots + 1, relative_deadline=workflow.relative_deadline, job_order=order
    )
    generate_requirements(workflow, slots, order)
    dag.critical_path(workflow)
    dag.critical_path_length(workflow)
    priorities.hlf_order(workflow)
    assert dag.longest_path_weights(workflow) is weights
    assert weights == dag._longest_path_weights(twin(workflow))
    assert problem.longest_path_weights is weights


class TestServiceHitPath:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        real = priorities._lpf_order
        monkeypatch.setattr(
            priorities, "_lpf_order", lambda w: calls.append(w) or real(w)
        )
        return calls

    def test_hits_on_one_body_run_the_prioritizer_once(self, counted):
        service = PlanningService(ServiceConfig(total_slots=24))
        body = workflow_to_xml(
            WorkflowBuilder("wf")
            .job("extract", maps=8, reduces=2, map_s=10.0, reduce_s=15.0)
            .job("load", maps=2, reduces=1, map_s=5.0, reduce_s=20.0, after=["extract"])
            .deadline(relative=400.0)
            .build()
        ).encode()

        async def go():
            served = []
            for _ in range(12):
                served.append(await service.plan(service.parse_workflow(body)))
            return served

        served = asyncio.run(go())
        assert [s.outcome for s in served] == ["miss"] + ["hit"] * 11
        # The first sighting's object is planned (a miss) and dropped; the
        # parse memo keeps the second, whose order is then computed once
        # for all eleven hits.
        assert len(counted) == 2
        assert counted[1] is service.parse_workflow(body)
