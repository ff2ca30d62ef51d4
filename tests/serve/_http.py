"""Client-side HTTP helpers the serve tests share: build a plan request,
read one response off a keep-alive connection."""

import asyncio
from typing import Dict, Tuple

from repro.workflow.model import Workflow
from repro.workloads.io import workflows_to_json


def build_request(workflow: Workflow, tenant: str, path: str = "/v1/plan") -> bytes:
    """One pre-serialized HTTP request (JSON workflow body, keep-alive)."""
    body = workflows_to_json([workflow]).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: test\r\n"
        f"Content-Type: application/json\r\n"
        f"X-Tenant: {tenant}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str], bytes]:
    """``(status, lower-cased headers, body)`` of the next response."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if line:
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body
