"""Planning-service child process for the serve workloads.

Started as ``python -m benchmarks.e2e.server [--trace]`` by
:mod:`benchmarks.e2e.serve`.  It builds
``PlanServer(PlanningService(ServiceConfig(total_slots=200)))`` on an
ephemeral port, prints ``{"port": N}`` and then obeys one-line commands on
standard input, answering each with one JSON line:

``reset``
    drop the spans recorded so far (``{"ok": true}``);
``stop`` (or end of input)
    stop serving and report the process's peak RSS and its span snapshot.

With ``--trace`` the layer wrappers are installed before the service is
built, so every entry point the service resolves is the wrapped one.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
from typing import Any, Dict, List

from repro.serve.api import PlanServer
from repro.serve.service import PlanningService, ServiceConfig

from benchmarks.e2e.trace import EntryPoint, Tracer, install

#: The slot count every served plan is computed for (the master's answer).
TOTAL_SLOTS = 200


def _served_outcome(_state, _args, result) -> str:
    return result[1]  # (entry, outcome)


#: Entry points wrapped in the traced server, by layer.
SERVE_ENTRIES: List[EntryPoint] = [
    EntryPoint("service.parse", "repro.serve.service", "PlanningService.parse_workflow"),
    EntryPoint("service.plan", "repro.serve.service", "PlanningService.plan"),
    EntryPoint("batching.plan", "repro.serve.batching", "BatchingPlanner.plan",
               outcome=_served_outcome),
    EntryPoint("batching.flush", "repro.serve.batching", "BatchingPlanner.flush_now"),
    EntryPoint("plancache.lookup", "repro.core.plancache", "PlanCache.lookup"),
    EntryPoint("plancache.fingerprint", "repro.core.plancache", "PlanCache.fingerprint"),
    EntryPoint("plancache.build", "repro.core.plancache", "PlanCache.get_or_build"),
    EntryPoint("plancache.build", "repro.core.plancache", "PlanCache.get_or_build_async",
               outcome=_served_outcome),
    EntryPoint("capsearch.search", "repro.core.client", "find_min_cap"),
    EntryPoint("plangen.sim", "repro.core.plangen", "_SimProblem.run"),
    EntryPoint("progress.to_bytes", "repro.core.progress", "ProgressPlan.to_bytes"),
]


def _reply(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def _serve(trace: bool) -> None:
    tracer = Tracer()
    absent: List[str] = []
    if trace:
        absent = install(tracer, SERVE_ENTRIES).absent
    server = PlanServer(PlanningService(ServiceConfig(total_slots=TOTAL_SLOTS)),
                        host="127.0.0.1", port=0)
    await server.start()
    _reply({"port": server.port})
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(commands), sys.stdin)
    try:
        while True:
            command = (await commands.readline()).strip()
            if command in (b"stop", b""):
                break
            if command == b"reset":
                tracer.reset()
                _reply({"ok": True})
            else:
                _reply({"error": f"unknown command {command.decode(errors='replace')!r}"})
    finally:
        await server.stop()
    _reply({
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.snapshot() if trace else None,
        "absent": absent,
    })


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true", help="install the layer wrappers")
    asyncio.run(_serve(parser.parse_args().trace))


if __name__ == "__main__":
    main()
