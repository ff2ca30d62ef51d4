"""Unit tests for the serve-bench request schedule (repro.serve.loadgen)."""

import inspect

from repro.core.client import plan_cache_mode
from repro.core.plancache import PlanCache
from repro.core.priorities import PRIORITIZERS
from repro.serve.loadgen import bench_templates, cell_workflows, run_serve_bench

DEFAULTS = {
    name: param.default
    for name, param in inspect.signature(run_serve_bench).parameters.items()
}


class TestColdMixJitter:
    def test_default_grid_stretches_stay_tiny_and_fingerprints_unique(self):
        templates = bench_templates(DEFAULTS["scenario"], DEFAULTS["seed"], DEFAULTS["scale"])
        per_client = DEFAULTS["requests_per_client"]
        mode = plan_cache_mode()
        for concurrency in DEFAULTS["concurrency_levels"]:
            schedule = cell_workflows("cold", templates, concurrency, per_client)
            assert len(schedule) == concurrency
            fingerprints = set()
            for workflows in schedule:
                assert len(workflows) == per_client
                for i, w in enumerate(workflows):
                    base = templates[i % len(templates)].relative_deadline
                    stretch = w.relative_deadline / base - 1.0
                    assert 0.0 <= stretch < 1e-3, (concurrency, i, stretch)
                    order = tuple(PRIORITIZERS["lpf"](w))
                    fingerprints.add(
                        PlanCache.fingerprint(w, order, DEFAULTS["total_slots"], mode)
                    )
            assert len(fingerprints) == concurrency * per_client
