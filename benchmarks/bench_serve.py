"""Serve-tier latency/throughput bench, per request mix and concurrency.

Runs the closed-loop load generator (:mod:`repro.serve.loadgen`) over the
full grid — request mix × concurrency — against a fresh in-process
service per cell, and records the trajectory payload as
``BENCH_serve.json`` at the repo root (shape pinned by
``tests/serve/test_bench_serve_guard.py``).

Acceptance bar asserted here: the recurrent mix is served ≥90% from the
shared plan cache.

The measurement test is marked ``perf`` and deselected by the default
``-m "not perf"`` addopts; run it explicitly with
``pytest benchmarks/bench_serve.py -m perf``.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest

from repro.serve.loadgen import cells_table, run_serve_bench

from benchmarks._helpers import emit

#: Trajectory file, kept at the repo root next to the other stock-taking docs.
JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_serve.json")

#: Top-level payload keys the guard test pins.
PAYLOAD_KEYS = ("bench", "config", "cells", "summary")


def run_bench(
    concurrency_levels=(2, 8, 16),
    requests_per_client: int = 40,
    scale: float = 0.5,
) -> Dict[str, object]:
    """The full measurement grid; returns the trajectory payload."""
    return run_serve_bench(
        concurrency_levels=concurrency_levels,
        requests_per_client=requests_per_client,
        scale=scale,
    )


def write_json(payload: Dict[str, object], path: str = JSON_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.mark.perf
def test_serve_latency():
    payload = run_bench()
    table = cells_table(
        payload["cells"], title="Planning service latency (closed-loop, in-process HTTP)"
    )
    emit("serve", table)
    write_json(payload)

    # The recurrent steady state is served from the shared cache.
    assert payload["summary"]["recurrent_hit_rate"] >= 0.9
