"""PlanServer tests over real sockets (ephemeral ports, keep-alive)."""

import asyncio
import json

import pytest

from repro.core.progress import ProgressPlan
from repro.experiments.scenarios import SCENARIOS
from repro.serve.api import PlanServer
from tests.serve._http import _read_response, build_request
from repro.serve.service import PlanningService, ServiceConfig
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.xmlconfig import workflow_to_xml


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


def raw_request(method, target, body=b"", content_type="application/xml", extra=()):
    head = [f"{method} {target} HTTP/1.1", "Host: test", f"Content-Length: {len(body)}"]
    if body:
        head.append(f"Content-Type: {content_type}")
    head.extend(extra)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def serve(test, config=None):
    """Start a server on an OS-picked port, run ``test(port, service)``."""

    async def go():
        service = PlanningService(config or ServiceConfig(total_slots=24))
        server = PlanServer(service, port=0)
        await server.start()
        try:
            return await test(server.port, service)
        finally:
            await server.stop()

    return asyncio.run(go())


async def roundtrip(port, *requests):
    """Send requests over ONE keep-alive connection; return the responses."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        responses = []
        for request in requests:
            writer.write(request)
            await writer.drain()
            responses.append(await _read_response(reader))
        return responses
    finally:
        writer.close()
        await writer.wait_closed()


class TestRoutes:
    def test_healthz(self):
        async def check(port, _service):
            [(status, _h, body)] = await roundtrip(port, raw_request("GET", "/healthz"))
            assert status == 200 and json.loads(body) == {"ok": True}

        serve(check)

    def test_plan_roundtrip_bytes_and_headers(self):
        w = diamond()

        async def check(port, service):
            request = build_request(w, tenant="t1")
            [(status, headers, body)] = await roundtrip(port, request)
            assert status == 200
            assert headers["content-type"] == "application/octet-stream"
            plan = ProgressPlan.from_bytes(body)
            assert plan.feasible and plan.to_bytes() == body
            assert headers["x-plan-feasible"] == "1"
            assert headers["x-plan-cap"] == str(plan.resource_cap)
            assert headers["x-plan-outcome"] == "miss"
            assert headers["x-request-id"] == "1"
            assert service.stats()["tenants"]["t1"] == {"miss": 1}

        serve(check)

    def test_keep_alive_second_request_is_warm(self):
        w = diamond()

        async def check(port, _service):
            request = build_request(w, tenant="t")
            responses = await roundtrip(port, request, request)
            outcomes = [headers["x-plan-outcome"] for _s, headers, _b in responses]
            assert outcomes == ["miss", "hit"]

        serve(check)

    def test_plan_accepts_xml_body(self):
        xml = workflow_to_xml(diamond()).encode()

        async def check(port, _service):
            [(status, headers, body)] = await roundtrip(
                port, raw_request("POST", "/v1/plan", xml)
            )
            assert status == 200
            assert ProgressPlan.from_bytes(body).feasible

        serve(check)

    def test_infeasible_plan_round_trips_with_zero_bit(self):
        doomed = diamond("doomed", relative_deadline=1.0)

        async def check(port, _service):
            [(status, headers, body)] = await roundtrip(port, build_request(doomed, "t"))
            assert status == 200 and headers["x-plan-feasible"] == "0"
            assert ProgressPlan.from_bytes(body).feasible is False

        serve(check)

    def test_admit_verdict(self):
        async def check(port, _service):
            good, bad = await roundtrip(
                port,
                build_request(diamond("ok"), "t", path="/v1/admit"),
                build_request(diamond("doomed", relative_deadline=1.0), "t", path="/v1/admit"),
            )
            assert json.loads(good[2])["admitted"] is True
            verdict = json.loads(bad[2])
            assert verdict["admitted"] is False and verdict["workflow"] == "doomed"

        serve(check)

    def test_malformed_xml_is_a_structured_400(self):
        async def check(port, _service):
            [(status, _h, body)] = await roundtrip(
                port, raw_request("POST", "/v1/plan", b"<workflow name='w'><job")
            )
            assert status == 400
            payload = json.loads(body)
            assert payload["ok"] is False and payload["errors"]

        serve(check)

    def test_non_object_json_is_a_400(self):
        async def check(port, _service):
            responses = await roundtrip(
                port,
                raw_request("POST", "/v1/plan", b"[]", content_type="application/json"),
                raw_request("POST", "/v1/admit", b"null", content_type="application/json"),
            )
            for status, _h, body in responses:
                assert status == 400
                payload = json.loads(body)
                assert payload["ok"] is False
                assert "not a repro workflow-set document" in payload["errors"][0]

        serve(check)

    def test_mixed_case_json_media_type_is_parsed_as_json(self):
        body = build_request(diamond(), "t").split(b"\r\n\r\n", 1)[1]

        async def check(port, _service):
            [(status, headers, _b)] = await roundtrip(
                port, raw_request("POST", "/v1/plan", body, content_type="Application/JSON")
            )
            assert status == 200 and headers["x-plan-outcome"] == "miss"

        serve(check)

    def test_memoized_parse_serves_identical_plan_bytes(self):
        async def check(port, _service):
            request = build_request(diamond(), "t")
            responses = await roundtrip(port, request, request, request)
            assert [h["x-plan-outcome"] for _s, h, _b in responses] == ["miss", "hit", "hit"]
            assert len({body for _s, _h, body in responses}) == 1
            [(_s, _h, body)] = await roundtrip(port, raw_request("GET", "/v1/stats"))
            assert json.loads(body)["parse_memo"] == {"size": 1, "hits": 1}

        serve(check)

    def test_trace_paging_over_http(self):
        w = diamond()

        async def check(port, _service):
            request = build_request(w, "t")
            await roundtrip(port, request, request)
            [(status, headers, body)] = await roundtrip(
                port, raw_request("GET", "/v1/trace?since=0&limit=1")
            )
            assert status == 200
            events = [json.loads(line) for line in body.decode().splitlines()]
            assert len(events) == 1 and events[0]["event"] == "plan_served"
            cursor = int(headers["x-trace-next"])
            [(_s2, h2, b2)] = await roundtrip(
                port, raw_request("GET", f"/v1/trace?since={cursor}&limit=50")
            )
            rest = [json.loads(line) for line in b2.decode().splitlines()]
            assert [e["outcome"] for e in rest] == ["hit"]

        serve(check)

    def test_stats_endpoint(self):
        async def check(port, _service):
            await roundtrip(port, build_request(diamond(), "alice"))
            [(status, _h, body)] = await roundtrip(port, raw_request("GET", "/v1/stats"))
            stats = json.loads(body)
            assert status == 200
            assert stats["requests"] == 1
            assert stats["tenants"] == {"alice": {"miss": 1}}
            assert stats["plan_cache"]["size"] == 1

        serve(check)


class TestRecurrentHitRate:
    def test_recurrent_requests_are_cache_served(self):
        """Two keep-alive clients cycle through the ``serve`` scenario's
        deadline-bearing templates (client ``c``'s request ``i`` plans
        template ``(c + i) mod T``): after each template's first build
        every request is a cache hit, so >= 90% of the 30 are."""
        templates = [
            w for w in SCENARIOS["serve"](7, 0.5)[0] if w.relative_deadline is not None
        ]
        assert len(templates) >= 2  # the two clients plan different templates
        clients, per_client = 2, 15

        async def check(port, _service):
            replies = await asyncio.gather(*(
                roundtrip(port, *(
                    build_request(templates[(c + i) % len(templates)], f"client{c:02d}")
                    for i in range(per_client)
                ))
                for c in range(clients)
            ))
            responses = [r for client in replies for r in client]
            assert len(responses) == clients * per_client
            assert all(status == 200 for status, _h, _b in responses)
            hits = sum(h["x-plan-outcome"] == "hit" for _s, h, _b in responses)
            assert hits / len(responses) >= 0.9

        serve(check, ServiceConfig(total_slots=200))


class TestProtocolEdges:
    def test_unknown_route_404(self):
        async def check(port, _service):
            [(status, _h, body)] = await roundtrip(port, raw_request("GET", "/nope"))
            assert status == 404 and "no route" in json.loads(body)["error"]

        serve(check)

    def test_wrong_method_405(self):
        async def check(port, _service):
            [(status, _h, _b)] = await roundtrip(port, raw_request("GET", "/v1/plan"))
            assert status == 405

        serve(check)

    def test_bad_trace_query_400(self):
        async def check(port, _service):
            [(status, _h, _b)] = await roundtrip(
                port, raw_request("GET", "/v1/trace?since=soon")
            )
            assert status == 400

        serve(check)

    def test_chunked_request_is_one_400_naming_the_header(self):
        body = workflow_to_xml(diamond()).encode("utf-8")
        head = (
            "POST /v1/plan HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/xml\r\nTransfer-Encoding: chunked\r\n\r\n"
        )
        chunked = f"{len(body):x}\r\n".encode("latin-1") + body + b"\r\n0\r\n\r\n"

        async def check(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(head.encode("latin-1") + chunked)
            await writer.drain()
            status, headers, payload = await _read_response(reader)
            assert status == 400 and headers["connection"] == "close"
            assert "Transfer-Encoding" in json.loads(payload)["error"]
            # Exactly one response: the chunk bytes are never parsed as a
            # second request, and the server closes its side.
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            assert service.requests == 0

        serve(check)

    def test_connection_close_honoured(self):
        async def check(port, _service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(raw_request("GET", "/healthz", extra=["Connection: close"]))
            await writer.drain()
            status, headers, _body = await _read_response(reader)
            assert status == 200 and headers["connection"] == "close"
            assert await reader.read() == b""  # server closed its side
            writer.close()
            await writer.wait_closed()

        serve(check)

    def test_planner_fault_is_a_500_and_connection_survives(self, monkeypatch):
        async def boom(*args, **kwargs):
            raise RuntimeError("planner blew up")

        # Patch at the service level: parse succeeds, plan explodes.
        async def check(port, service):
            monkeypatch.setattr(service, "plan", boom)
            responses = await roundtrip(
                port, build_request(diamond(), "t"), raw_request("GET", "/healthz")
            )
            (status, _h, body), (ok_status, _h2, ok_body) = responses
            assert status == 500 and "planner blew up" in json.loads(body)["error"]
            assert ok_status == 200 and json.loads(ok_body) == {"ok": True}

        serve(check)


def json_body(jobs=None, missing=(), **workflow_fields):
    """A one-workflow ``repro-workflows`` body; NaN/inf dump as JSON literals.
    Keys in ``missing`` are left out of every job."""
    if jobs is None:
        jobs = [{}]
    base = {"name": "a", "maps": 2, "reduces": 1, "map_duration": 10.0,
            "reduce_duration": 5.0, "after": []}
    workflow = {"name": "w", "submit": 0.0, "deadline": 500.0,
                "jobs": [{**base, **job} for job in jobs], **workflow_fields}
    for job in workflow["jobs"]:
        for key in missing:
            del job[key]
    doc = {"format": "repro-workflows", "version": 1, "workflows": [workflow]}
    return json.dumps(doc).encode()


def xml_body(deadline="500", submit="0", maps="2", reduces="1", map_duration="10",
             reduce_duration="5"):
    return (
        f'<workflow name="w" deadline="{deadline}" submit="{submit}">'
        f'<job name="a" maps="{maps}" reduces="{reduces}" map-duration="{map_duration}" '
        f'reduce-duration="{reduce_duration}"/></workflow>'
    ).encode()


JSON, XML = "application/json", "application/xml"

#: id -> (media type, body, text the 400's error must contain).
MALFORMED_BODIES = {
    # A bare string must not be read as the set of its characters: jobs a
    # and b exist, so "ab" as {a, b} would plan and answer 200.
    "after-string": (JSON, json_body([{}, {"name": "b"}, {"name": "ab", "after": "ab"}]),
                     "job 'ab': 'after' must be a list of strings"),
    # A non-string name would otherwise fail later, as a 500 from plan encoding.
    "job-name-number": (JSON, json_body([{"name": 5}]), "job 5: 'name' must be a string"),
    "workflow-name-number": (JSON, json_body(name=7), "workflow: 'name' must be a string"),
    "inputs-string": (JSON, json_body([{"inputs": "/in"}]), "'inputs' must be a list"),
    "outputs-string": (JSON, json_body([{"outputs": "/out"}]), "'outputs' must be a list"),
    # Counts and durations are not coerced: 1.5, true and "4" are not counts.
    "maps-float": (JSON, json_body([{"maps": 1.5}]), "job 'a': 'maps' must be an integer"),
    "maps-bool": (JSON, json_body([{"maps": True}]), "job 'a': 'maps' must be an integer"),
    "reduces-string": (JSON, json_body([{"reduces": "4"}]), "'reduces' must be an integer"),
    "duration-string": (JSON, json_body([{"map_duration": "10"}]), "'map_duration' must be"),
    # Non-finite values must not reach the planner (it cannot plan them).
    "map-duration-nan": (JSON, json_body([{"map_duration": float("nan")}]),
                         "'map_duration' must be a finite number"),
    "deadline-nan": (JSON, json_body(deadline=float("nan")),
                     "workflow 'w': 'deadline' must be a finite number"),
    "deadline-infinity": (JSON, json_body(deadline=float("inf")),
                          "workflow 'w': 'deadline' must be a finite number"),
    "xml-deadline-nan": (XML, xml_body(deadline="nan"), "non-finite deadline"),
    "xml-deadline-inf": (XML, xml_body(deadline="inf"), "non-finite deadline"),
    "xml-map-duration-nan": (XML, xml_body(map_duration="nan"),
                             "workflow 'w' job 'a': 'map-duration' must be a finite number, got 'nan'"),
    "xml-reduce-duration-inf": (XML, xml_body(reduce_duration="inf"),
                                "workflow 'w' job 'a': 'reduce-duration' must be a finite number, "
                                "got 'inf'"),
    "xml-submit-not-a-number": (XML, xml_body(submit="soon"), "bad submit or deadline"),
    # Each XML job attribute is named with its bad value, so maps="1.5"
    # can be told from reduces="1.5".
    "xml-maps-float": (XML, xml_body(maps="1.5"),
                       "job 'a': 'maps' must be an integer, got '1.5'"),
    "xml-reduces-float": (XML, xml_body(reduces="1.5"),
                          "job 'a': 'reduces' must be an integer, got '1.5'"),
    "xml-map-duration-string": (XML, xml_body(map_duration="ten"),
                                "job 'a': 'map-duration' must be a number, got 'ten'"),
    "xml-reduce-duration-string": (XML, xml_body(reduce_duration="5s"),
                                   "job 'a': 'reduce-duration' must be a number, got '5s'"),
    # Free-text fields are strings or absent; a list must not reach hdfs.exists.
    "jar-list": (JSON, json_body([{"jar": [1]}]),
                 "workflow 'w' job 'a': 'jar' must be a string, got [1]"),
    "main-class-number": (JSON, json_body([{"main_class": 3}]),
                          "workflow 'w' job 'a': 'main_class' must be a string, got 3"),
    # Range checks and missing fields name the workflow, the job and the field.
    "maps-negative": (JSON, json_body([{"maps": -2}]),
                      "workflow 'w' job 'a': 'maps' must be >= 0, got -2"),
    "xml-maps-negative": (XML, xml_body(maps="-2"),
                          "workflow 'w' job 'a': 'maps' must be >= 0, got -2"),
    "map-duration-zero": (JSON, json_body([{"map_duration": 0}]),
                          "workflow 'w' job 'a': 'map_duration' must be positive when "
                          "'maps' > 0, got 0"),
    "xml-map-duration-negative": (XML, xml_body(map_duration="-10"),
                                  "workflow 'w' job 'a': 'map-duration' must be positive when "
                                  "'maps' > 0, got -10"),
    "xml-no-tasks": (XML, xml_body(maps="0", reduces="0"),
                     "workflow 'w' job 'a': job has no tasks ('maps' and 'reduces' are both 0)"),
    "missing-maps": (JSON, json_body(missing=["maps"]),
                     "workflow 'w' job 'a': missing field 'maps'"),
    "missing-job-name": (JSON, json_body(missing=["name"]),
                         "workflow 'w' job: missing field 'name'"),
    # json.loads raises RecursionError on deep nesting.
    "json-nested-200kb": (JSON, b"[" * 200_000, "bad workflow JSON"),
}


class TestMalformedFields:
    @pytest.mark.parametrize("case", sorted(MALFORMED_BODIES))
    def test_is_a_400_naming_the_field(self, case):
        content_type, body, needle = MALFORMED_BODIES[case]

        async def check(port, _service):
            [(status, _h, reply)] = await roundtrip(
                port, raw_request("POST", "/v1/plan", body, content_type=content_type)
            )
            payload = json.loads(reply)
            assert status == 400, payload
            assert payload["ok"] is False
            assert needle in payload["errors"][0], payload

        serve(check)
