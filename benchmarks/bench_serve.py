"""Serve-tier latency/throughput bench: batching on vs off, per mix.

Runs the closed-loop load generator (:mod:`repro.serve.loadgen`) over the
full grid — request mix × micro-batching × concurrency — against a fresh
in-process service per cell, and records the trajectory payload as
``BENCH_serve.json`` at the repo root (shape pinned by
``tests/serve/test_bench_serve_guard.py``).

Acceptance bars asserted here (ISSUE 10):

* the recurrent mix is served ≥90% from the shared plan cache;
* at the highest concurrency, cold-mix p99 with batching on is strictly
  better than with batching off — the shared-setup fusion must buy more
  than parking each miss until the next event-loop turn costs.

The measurement test is marked ``perf`` and deselected by the default
``-m "not perf"`` addopts; run it explicitly with
``pytest benchmarks/bench_serve.py -m perf``.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest

from repro.metrics.report import format_table
from repro.serve.loadgen import run_serve_bench

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
    cells = payload["cells"]

    rows = [
        [
            cell["mix"],
            "on" if cell["batching"] else "off",
            cell["concurrency"],
            cell["plans_per_sec"],
            cell["latency_ms"]["p50"],
            cell["latency_ms"]["p99"],
            cell["latency_ms"]["p999"],
            f"{cell['hit_rate']:.2f}",
        ]
        for cell in cells
    ]
    table = format_table(
        ["mix", "batch", "conc", "plans/s", "p50 ms", "p99 ms", "p999 ms", "hits"],
        rows,
        title="Planning service latency (closed-loop, in-process HTTP)",
        float_fmt="{:.2f}",
    )
    emit("serve", table)
    write_json(payload)

    summary = payload["summary"]
    # Bar 1: the recurrent steady state is served from the shared cache.
    assert summary["recurrent_hit_rate"] >= 0.9
    # Bar 2: at the top concurrency, fusion beats per-request building.
    cold = summary["cold_p99_ms"]
    assert cold["batching_on"] < cold["batching_off"]
