"""The service adds sharing, never different answers (ISSUE satellite 3).

Plans fetched over HTTP must be byte-identical to what a direct
``make_planner`` call produces for the same configuration — across
prioritizers × pool modes, for feasible and infeasible
workflows — and ``/v1/admit`` verdicts must agree with direct planner
feasibility across the sweep scenario corpus.
"""

import asyncio
import json

import pytest

from repro.core.client import make_planner
from repro.core.progress import ProgressPlan
from repro.experiments.scenarios import SCENARIOS
from repro.serve.api import PlanServer
from tests.serve._http import _read_response, build_request
from repro.serve.service import PlanningService, ServiceConfig
from repro.workflow.builder import WorkflowBuilder

SLOTS = 24


def diamond(name="wf", *, relative_deadline=400.0):
    return (
        WorkflowBuilder(name)
        .job("extract", maps=8, reduces=2, map_s=10.0, reduce_s=15.0)
        .job("left", maps=4, reduces=1, map_s=8.0, reduce_s=9.0, after=["extract"])
        .job("right", maps=6, reduces=0, map_s=12.0, after=["extract"])
        .job("load", maps=2, reduces=1, map_s=5.0, reduce_s=20.0, after=["left", "right"])
        .deadline(relative=relative_deadline)
        .build()
    )


def served_bytes(config, workflows, path="/v1/plan"):
    """Plan each workflow through a real server; return the response bodies."""

    async def go():
        service = PlanningService(config)
        server = PlanServer(service, port=0)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                bodies = []
                for workflow in workflows:
                    writer.write(build_request(workflow, "t", path=path))
                    await writer.drain()
                    status, _headers, body = await _read_response(reader)
                    assert status == 200
                    bodies.append(body)
                return bodies
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            await server.stop()

    return asyncio.run(go())


@pytest.mark.parametrize("prioritizer", ["hlf", "lpf", "mpf"])
@pytest.mark.parametrize("pool", ["pooled", "split"])
def test_plan_bytes_identical_to_direct_planner(prioritizer, pool):
    config = ServiceConfig(total_slots=SLOTS, prioritizer=prioritizer, pool=pool)
    workflows = [diamond("feasible"), diamond("infeasible", relative_deadline=1.0)]
    bodies = served_bytes(config, workflows)
    planner = make_planner(prioritizer=prioritizer, pool=pool)
    for workflow, body in zip(workflows, bodies):
        direct = planner(workflow, SLOTS)
        assert body == direct.to_bytes()
        wire = ProgressPlan.from_bytes(body)
        assert wire.feasible == direct.feasible
        assert wire.resource_cap == direct.resource_cap


def test_infeasible_bit_survives_the_wire():
    [body] = served_bytes(
        ServiceConfig(total_slots=SLOTS), [diamond("doomed", relative_deadline=1.0)]
    )
    plan = ProgressPlan.from_bytes(body)
    assert plan.feasible is False
    assert plan.to_bytes() == body  # byte-stable round-trip


def test_admission_agrees_with_direct_planner_across_sweep_corpus():
    slots = 200
    planner = make_planner()
    corpus = []
    for name in sorted(SCENARIOS):
        workflows, _outages = SCENARIOS[name](seed=3, scale=0.25)
        corpus.extend(w for w in workflows if w.relative_deadline is not None)
    assert len(corpus) >= 8  # the corpus actually exercises several scenarios

    bodies = served_bytes(
        ServiceConfig(total_slots=slots), corpus, path="/v1/admit"
    )
    verdicts = [json.loads(body) for body in bodies]
    for workflow, verdict in zip(corpus, verdicts):
        assert verdict["workflow"] == workflow.name
        assert verdict["admitted"] == planner(workflow, slots).feasible
    assert any(v["admitted"] for v in verdicts)  # the comparison is not vacuous
