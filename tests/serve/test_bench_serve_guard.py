"""Tier-1 shape guard for ``BENCH_serve.json`` (benchmarks/bench_serve.py).

Runs one tiny grid (fast enough for tier-1) and pins the payload schema
the trajectory tooling reads, so a refactor cannot silently change the
JSON shape between perf runs.  Latency *values* are asserted only for
sanity — the perf bars live behind ``-m perf``.
"""

import json

from benchmarks.bench_serve import PAYLOAD_KEYS, run_bench
from repro.serve.loadgen import CELL_KEYS, LATENCY_KEYS, MIXES, percentile


def tiny_payload():
    return run_bench(concurrency_levels=(2,), requests_per_client=15, scale=0.5)


class TestPayloadShape:
    def test_payload_schema_is_pinned(self):
        payload = tiny_payload()
        assert tuple(sorted(payload)) == tuple(sorted(PAYLOAD_KEYS))
        assert payload["bench"] == "serve"

        cells = payload["cells"]
        assert len(cells) == len(MIXES) * 1  # mix x concurrency
        for cell in cells:
            assert tuple(sorted(cell)) == tuple(sorted(CELL_KEYS))
            assert tuple(sorted(cell["latency_ms"])) == tuple(sorted(LATENCY_KEYS))
            assert cell["requests"] == 2 * 15
            assert sum(cell["outcomes"].values()) == cell["requests"]
            assert 0.0 <= cell["hit_rate"] <= 1.0
            assert cell["latency_ms"]["p50"] <= cell["latency_ms"]["p99"]

        summary = payload["summary"]
        assert set(summary) == {"top_concurrency", "recurrent_hit_rate"}
        assert summary["top_concurrency"] == 2

    def test_payload_round_trips_through_json(self):
        payload = tiny_payload()
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload

    def test_recurrent_mix_is_cache_served(self):
        # Deterministic at these parameters: with T templates and R>=T
        # requests per client, misses are bounded by the template count, so
        # the steady state clears the >=90% acceptance bar even in tier-1.
        payload = tiny_payload()
        assert payload["summary"]["recurrent_hit_rate"] >= 0.9


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 0.999) == 100.0

    def test_empty_and_singleton(self):
        assert percentile([], 0.99) == 0.0
        assert percentile([7.0], 0.5) == 7.0
