"""Tests for the transport-independent PlanningService core."""

import asyncio
import gc
import json
import weakref

import pytest

from repro.core.client import ValidationError
from repro.serve.service import MAX_TENANT_SCOPES, PlanningService, ServiceConfig
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.xmlconfig import workflow_to_xml
from repro.workloads.io import workflows_to_json


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


class TestConfigValidation:
    def test_bad_slots_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(total_slots=0)

    def test_bad_pool_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(pool="quantum")

    def test_bad_prioritizer_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(prioritizer="alphabetical")

    def test_zero_cache_capacity_rejected(self):
        with pytest.raises(ValueError, match="cache_capacity"):
            ServiceConfig(cache_capacity=0)

    @pytest.mark.parametrize("fraction", [float("nan"), 0.0, 1.0, -0.5, 1.5, float("inf")])
    def test_bad_map_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match="map_fraction"):
            ServiceConfig(pool="split", map_fraction=fraction)


class TestParseWorkflow:
    def test_xml_body(self):
        service = PlanningService()
        xml = workflow_to_xml(diamond())
        assert service.parse_workflow(xml.encode()).name == "wf"

    def test_json_body(self):
        service = PlanningService()
        body = workflows_to_json([diamond()]).encode()
        workflow = service.parse_workflow(body, "application/json")
        assert workflow.name == "wf" and len(workflow.jobs) == 4

    def test_malformed_xml_raises_typed_error(self):
        service = PlanningService()
        with pytest.raises(ValidationError) as exc_info:
            service.parse_workflow(b"<workflow name='w'><job")
        report = exc_info.value.report
        assert not report.ok and report.errors

    def test_json_with_wrong_count_rejected(self):
        service = PlanningService()
        body = workflows_to_json([diamond("a"), diamond("b")]).encode()
        with pytest.raises(ValidationError, match="exactly 1"):
            service.parse_workflow(body, "application/json")

    def test_undecodable_body_rejected(self):
        service = PlanningService()
        with pytest.raises(ValidationError, match="undecodable"):
            service.parse_workflow(b"\xff\xfe\x01", "application/xml")

    def test_bad_json_rejected(self):
        service = PlanningService()
        with pytest.raises(ValidationError, match="bad workflow JSON"):
            service.parse_workflow(b'{"format": "nope"}', "application/json")

    @pytest.mark.parametrize("body", [b"[]", b"null", b"3"])
    def test_non_object_json_is_a_validation_error(self, body):
        service = PlanningService()
        with pytest.raises(ValidationError, match="not a repro workflow-set document"):
            service.parse_workflow(body, "application/json")

    @pytest.mark.parametrize(
        "content_type", ["Application/JSON", "APPLICATION/JSON; charset=UTF-8"]
    )
    def test_media_type_is_case_insensitive(self, content_type):
        service = PlanningService()
        body = workflows_to_json([diamond()]).encode()
        assert service.parse_workflow(body, content_type).name == "wf"


def xml_body(name="wf"):
    return workflow_to_xml(diamond(name)).encode()


class TestParseMemo:
    def test_third_parse_returns_the_memoized_workflow(self):
        service = PlanningService()
        body = xml_body()
        first = service.parse_workflow(body)
        second = service.parse_workflow(body)
        assert second is not first  # first sighting only leaves a placeholder
        assert service.parse_workflow(body) is second
        assert service.parse_workflow(body) is second
        assert service.stats()["parse_memo"] == {"size": 1, "hits": 2}

    def test_one_byte_difference_reparses(self):
        service = PlanningService()
        body = xml_body()
        for _ in range(3):
            memoized = service.parse_workflow(body)
        other = body.replace(b'name="wf"', b'name="wg"', 1)
        assert other != body and len(other) == len(body)
        reparsed = service.parse_workflow(other)
        assert reparsed is not memoized and reparsed.name == "wg"
        assert service.stats()["parse_memo"]["hits"] == 1

    def test_malformed_body_raises_every_time_and_is_never_stored(self):
        service = PlanningService()
        for _ in range(4):
            with pytest.raises(ValidationError):
                service.parse_workflow(b"<workflow name='w'><job")
        assert service.stats()["parse_memo"] == {"size": 0, "hits": 0}

    def test_format_is_part_of_the_key(self):
        """JSON bytes memoized as JSON must not answer an XML request."""
        service = PlanningService()
        body = workflows_to_json([diamond()]).encode()
        for _ in range(3):
            service.parse_workflow(body, "application/json")
        assert service.stats()["parse_memo"]["hits"] == 1
        with pytest.raises(ValidationError):
            service.parse_workflow(body, "application/xml")
        # The case-insensitive media type takes the same decision, so it
        # shares the JSON entry.
        service.parse_workflow(body, "Application/JSON")
        assert service.stats()["parse_memo"]["hits"] == 2

    def test_memo_is_bounded_and_evicts_least_recently_used(self):
        service = PlanningService(ServiceConfig(cache_capacity=2))
        a, b, c = xml_body("a"), xml_body("b"), xml_body("c")
        service.parse_workflow(a)
        stored_a = service.parse_workflow(a)
        service.parse_workflow(b)
        assert service.parse_workflow(a) is stored_a  # a is now most recent
        service.parse_workflow(c)  # evicts b, the least recently used
        assert service.stats()["parse_memo"]["size"] == 2
        assert service.parse_workflow(a) is stored_a
        hits = service.stats()["parse_memo"]["hits"]
        service.parse_workflow(b)
        service.parse_workflow(b)  # b's placeholder was evicted: no hit yet
        assert service.stats()["parse_memo"]["hits"] == hits
        assert service.stats()["parse_memo"]["size"] == 2

    def test_unique_bodies_retain_only_placeholders(self):
        service = PlanningService()
        refs = [weakref.ref(service.parse_workflow(xml_body(f"wf{i}"))) for i in range(2000)]
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert service.stats()["parse_memo"] == {
            "size": service.config.cache_capacity,
            "hits": 0,
        }


class TestPlanAndAdmit:
    def test_per_tenant_outcome_counters(self):
        service = PlanningService(ServiceConfig(total_slots=24))
        w = diamond()

        async def go():
            await service.plan(w, tenant="alice")
            await service.plan(w, tenant="bob")
            await service.plan(w, tenant="bob")

        asyncio.run(go())
        stats = service.stats()
        assert stats["tenants"]["alice"] == {"miss": 1}
        assert stats["tenants"]["bob"] == {"hit": 2}
        assert stats["requests"] == 3
        assert stats["plan_cache"]["hits"] == 2

    def test_tenant_scopes_are_capped(self):
        service = PlanningService(ServiceConfig(total_slots=24))
        w = diamond()

        async def go():
            for i in range(300):
                await service.plan(w, tenant=f"t{i:03d}")

        asyncio.run(go())
        stats = service.stats()
        tenants = stats["tenants"]
        assert len(tenants) == MAX_TENANT_SCOPES + 1 == 257
        assert "t000" in tenants and "t299" not in tenants
        assert tenants["other"] == {"hit": 300 - MAX_TENANT_SCOPES}
        served = sum(n for table in tenants.values() for n in table.values())
        assert served == stats["requests"] == 300

    def test_tenant_seen_before_the_cap_keeps_its_scope(self):
        service = PlanningService(ServiceConfig(total_slots=24))
        w = diamond()

        async def go():
            for i in range(MAX_TENANT_SCOPES + 5):
                await service.plan(w, tenant=f"t{i:03d}")
            await service.plan(w, tenant="t000")
            await service.plan(w, tenant="late")

        asyncio.run(go())
        tenants = service.stats()["tenants"]
        assert tenants["t000"] == {"miss": 1, "hit": 1}
        assert "late" not in tenants
        assert tenants["other"] == {"hit": 6}

    def test_stats_report_retained_setups(self):
        service = PlanningService(ServiceConfig(total_slots=24, cache_capacity=4))

        async def go():
            for deadline in (400.0, 401.0, 1.0):
                await service.plan(diamond("a", relative_deadline=deadline))

        asyncio.run(go())
        stats = service.stats()
        # One structure: one setup, holding the feasible and the infeasible plan.
        assert stats["setups"] == {"size": 1, "plans": 2}
        assert stats["batch"]["shared_setups"] == 2
        assert stats["setups"]["size"] <= stats["plan_cache"]["capacity"]

    def test_admission_verdict_is_the_feasibility_bit(self):
        service = PlanningService(ServiceConfig(total_slots=24))

        async def go():
            good = await service.admit(diamond("ok"))
            bad = await service.admit(diamond("doomed", relative_deadline=1.0))
            return good, bad

        good, bad = asyncio.run(go())
        assert good["admitted"] is True
        assert bad["admitted"] is False
        assert bad["resource_cap"] == 24  # infeasible: most optimistic plan
        assert good["outcome"] == "miss"

    def test_plan_records_trace_events(self):
        service = PlanningService(ServiceConfig(total_slots=24))
        asyncio.run(service.plan(diamond(), tenant="t"))
        page, cursor = service.trace_page(0, 10)
        events = [json.loads(line) for line in page.splitlines()]
        assert [e["event"] for e in events] == ["plan_served"]
        assert events[0]["tenant"] == "t" and events[0]["outcome"] == "miss"
        assert cursor == events[-1]["seq"] + 1

    def test_trace_page_is_incremental(self):
        service = PlanningService(ServiceConfig(total_slots=24))

        async def go():
            await service.admit(diamond("a"))
            await service.admit(diamond("b", relative_deadline=500.0))

        asyncio.run(go())
        first, cursor = service.trace_page(0, 2)
        rest, end = service.trace_page(cursor, 100)
        assert len(first.splitlines()) == 2
        seqs = [json.loads(line)["seq"] for line in (first + rest).splitlines()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # A poll past the end returns an empty page and a stable cursor.
        empty, again = service.trace_page(end, 10)
        assert empty == "" and again == end

    def test_every_miss_takes_the_batching_path(self):
        # Misses have one route (batcher flush -> PlanCache.get_or_build),
        # so every batched request is either a cache miss or a fused one.
        service = PlanningService(ServiceConfig(total_slots=24))
        cold = [diamond(f"w{i}", relative_deadline=400.0 + i) for i in range(4)]

        async def go():
            await asyncio.gather(*(service.plan(w) for w in cold + cold))
            await service.plan(cold[0])

        asyncio.run(go())
        stats = service.stats()
        batch, cache = stats["batch"], stats["plan_cache"]
        assert batch["batched_requests"] == cache["misses"] + batch["fused"]
        assert batch["batched_requests"] == 8 and cache["hits"] == 1
        assert "coalesced" not in cache
        assert "batching" not in stats["config"]

    def test_stats_are_json_serialisable(self):
        service = PlanningService()
        asyncio.run(service.plan(diamond()))
        assert json.loads(json.dumps(service.stats()))["requests"] == 1
