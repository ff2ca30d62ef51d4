"""``repro profile``'s serve scenario: the cold-request jitter and a smoke run."""

import pytest

from repro.core.client import plan_cache_mode
from repro.core.plancache import PlanCache
from repro.core.priorities import PRIORITIZERS
from repro.experiments.profiling import _jittered, profile_scenario
from repro.experiments.scenarios import SCENARIOS


@pytest.mark.parametrize("seed, scale, total", [(7, 0.5, 16 * 25), (0, 0.25, 5 * 8)])
def test_jitter_stretches_stay_tiny_and_fingerprints_unique(seed, scale, total):
    templates = [
        w for w in SCENARIOS["serve"](seed, scale)[0] if w.relative_deadline is not None
    ]
    mode = plan_cache_mode()
    fingerprints = set()
    for ordinal in range(total):
        template = templates[ordinal % len(templates)]
        w = _jittered(template, ordinal, total)
        stretch = w.relative_deadline / template.relative_deadline - 1.0
        assert 0.0 <= stretch < 1e-3, (ordinal, stretch)
        order = tuple(PRIORITIZERS["lpf"](w))
        fingerprints.add(PlanCache.fingerprint(w, order, 200, mode))
    assert len(fingerprints) == total


def test_serve_profile_counts_one_event_per_request():
    report = profile_scenario("serve", scale=0.1, nodes=2, top=3, sort="tottime")
    # max(2, round(20 * 0.1)) rounds of two tenants each.
    assert report.events == 2 * 2
    assert len(report.rows) == 3
    assert "top 3 by internal time" in report.render()
