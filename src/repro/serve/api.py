"""Minimal HTTP/1.1 transport for the planning service (DESIGN.md §15).

Stdlib only: ``asyncio.start_server`` streams plus a hand-rolled
request parser — no web framework ships with the image, and the protocol
surface is five routes.  Persistent connections (HTTP keep-alive) are
supported because closed-loop clients (the ``benchmarks/e2e`` serve
driver among them) reuse one socket for thousands of requests;
``Connection: close`` is honoured.

Bodies are framed by ``Content-Length`` only.  A request carrying
``Transfer-Encoding`` (chunked or otherwise) gets a single 400 that names
the header, and the connection is closed: its body cannot be delimited,
so nothing after its head can be trusted as the next request.

Routes:

``GET /healthz``
    Liveness: ``{"ok": true}``.
``POST /v1/plan``
    Body: workflow XML (default) or a single-workflow JSON document
    (any ``Content-Type`` whose media type contains ``json``, in any
    case).  Response: the serialized
    :class:`~repro.core.progress.ProgressPlan` wire bytes
    (``application/octet-stream``, feasibility bit included) with headers
    ``X-Plan-Cap``, ``X-Plan-Feasible``, ``X-Plan-Makespan``,
    ``X-Plan-Outcome`` (hit/miss/fused) and ``X-Request-Id``.
    The tenant is taken from the ``X-Tenant`` header (default
    ``"default"``).
``POST /v1/admit``
    Same body; response is the JSON admission verdict (plan feasibility).
``GET /v1/trace?since=N&limit=M``
    JSONL page of retained tracer events with ``seq >= N``;
    ``X-Trace-Next`` carries the cursor for the next poll.
``GET /v1/stats``
    JSON snapshot: request count, cache counters, batch counters,
    retained-setup occupancy, parse-memo size and hits, per-tenant
    outcome counts.

Rejections use status 400 with the structured
:meth:`~repro.core.client.ValidationReport.to_payload` body, so clients
see *what* failed, not an exception string.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.client import ValidationError
from repro.serve.service import PlanningService

__all__ = ["PlanServer"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class _BadRequest(Exception):
    """A protocol-level parse failure (malformed request framing)."""


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request; ``None`` on a cleanly closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client closed between requests: normal keep-alive end
        raise _BadRequest("truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise _BadRequest("request head too large") from exc
    if len(head) > _MAX_HEADER_BYTES:
        raise _BadRequest("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise _BadRequest(f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    coding = headers.get("transfer-encoding")
    if coding is not None:
        raise _BadRequest(
            f"Transfer-Encoding {coding!r} is not supported; send a Content-Length body"
        )
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _BadRequest(f"bad Content-Length {length_text!r}") from None
    if length < 0 or length > _MAX_BODY_BYTES:
        raise _BadRequest(f"unacceptable Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def _response(
    status: int,
    body: bytes,
    content_type: str,
    extra: Optional[Dict[str, str]] = None,
    close: bool = False,
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    if extra:
        for name, value in extra.items():
            lines.append(f"{name}: {value}")
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1") + body


def _json_response(status: int, payload: Any, close: bool = False,
                   extra: Optional[Dict[str, str]] = None) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return _response(status, body, "application/json", extra=extra, close=close)


class PlanServer:
    """``repro serve``: the HTTP face of a :class:`PlanningService`.

    Args:
        service: the shared service core (one per process).
        host/port: bind address; port 0 lets the OS pick (tests, CI smoke).
    """

    def __init__(self, service: PlanningService, host: str = "127.0.0.1", port: int = 8080) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> None:
        """Bind and start accepting; updates :attr:`port` when it was 0."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ------------------------------------------------

    # repro: entrypoint[service]
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """One client connection: serve requests until close (keep-alive)."""
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as exc:
                    writer.write(_json_response(400, {"error": str(exc)}, close=True))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                close = headers.get("connection", "").lower() == "close"
                response = await self._dispatch(method, target, headers, body, close)
                writer.write(response)
                await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass  # CancelledError: event-loop teardown racing the close handshake

    async def _dispatch(
        self, method: str, target: str, headers: Dict[str, str], body: bytes, close: bool
    ) -> bytes:
        split = urlsplit(target)
        path = split.path
        try:
            if path == "/healthz":
                if method != "GET":
                    return _json_response(405, {"error": "use GET"}, close=close)
                return _json_response(200, {"ok": True}, close=close)
            if path == "/v1/stats":
                if method != "GET":
                    return _json_response(405, {"error": "use GET"}, close=close)
                return _json_response(200, self.service.stats(), close=close)
            if path == "/v1/trace":
                if method != "GET":
                    return _json_response(405, {"error": "use GET"}, close=close)
                return self._trace(split.query, close)
            if path == "/v1/plan":
                if method != "POST":
                    return _json_response(405, {"error": "use POST"}, close=close)
                return await self._plan(headers, body, close)
            if path == "/v1/admit":
                if method != "POST":
                    return _json_response(405, {"error": "use POST"}, close=close)
                return await self._admit(headers, body, close)
            return _json_response(404, {"error": f"no route {path!r}"}, close=close)
        except ValidationError as exc:
            return _json_response(400, exc.report.to_payload(), close=close)
        except Exception as exc:  # surface planner faults as 500, keep serving
            return _json_response(500, {"error": f"{type(exc).__name__}: {exc}"}, close=close)

    def _trace(self, query_string: str, close: bool) -> bytes:
        query = parse_qs(query_string)
        try:
            since = int(query.get("since", ["0"])[0])
            limit = int(query.get("limit", ["256"])[0])
        except ValueError:
            return _json_response(400, {"error": "since/limit must be integers"}, close=close)
        if limit < 1:
            return _json_response(400, {"error": "limit must be >= 1"}, close=close)
        page, next_cursor = self.service.trace_page(since=since, limit=limit)
        return _response(
            200,
            page.encode("utf-8"),
            "application/x-ndjson",
            extra={"X-Trace-Next": str(next_cursor)},
            close=close,
        )

    async def _plan(self, headers: Dict[str, str], body: bytes, close: bool) -> bytes:
        workflow = self.service.parse_workflow(
            body, headers.get("content-type", "application/xml")
        )
        served = await self.service.plan(workflow, tenant=headers.get("x-tenant", "default"))
        plan = served.plan
        return _response(
            200,
            plan.to_bytes(),
            "application/octet-stream",
            extra={
                "X-Plan-Cap": str(plan.resource_cap),
                "X-Plan-Feasible": "1" if plan.feasible else "0",
                "X-Plan-Makespan": repr(plan.makespan),
                "X-Plan-Outcome": served.outcome,
                "X-Request-Id": str(served.request_id),
            },
            close=close,
        )

    async def _admit(self, headers: Dict[str, str], body: bytes, close: bool) -> bytes:
        workflow = self.service.parse_workflow(
            body, headers.get("content-type", "application/xml")
        )
        verdict = await self.service.admit(
            workflow, tenant=headers.get("x-tenant", "default")
        )
        return _json_response(200, verdict, close=close)
