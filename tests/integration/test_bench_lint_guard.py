"""Guard for the lint-speed bench machinery.

``benchmarks/bench_lint_speed.py`` is ``perf``-marked and excluded from
the tier-1 suite, so this tier-1 test runs its measurement path on a toy
corpus (one repeat, the fixture directory) and pins the payload shape —
the same arrangement as ``test_bench_plan_throughput_guard``.
"""

import json
from pathlib import Path

from benchmarks.bench_lint_speed import (
    BUDGET_SECONDS,
    INTERPROC_BUDGET_SECONDS,
    run_bench,
)
from repro.analysis import RULES
from tests.analysis.test_rules import RULE_FIXTURES

FIXTURES = Path(__file__).resolve().parent.parent / "analysis" / "fixtures"


def test_bench_payload_shape_on_toy_corpus(tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("")  # empty budget; fixture violations are expected
    payload = run_bench(paths=[FIXTURES], baseline=baseline, repeats=1)

    assert json.loads(json.dumps(payload)) == payload  # JSON-serialisable
    assert payload["bench"] == "lint_speed"
    assert payload["files_checked"] >= 8
    # One per seeded intraprocedural rule fixture.
    assert payload["violations"] >= len(RULE_FIXTURES)
    assert payload["best_seconds"] > 0
    assert payload["files_per_sec"] > 0
    assert payload["budget_seconds"] == BUDGET_SECONDS


def test_bench_interproc_payload_shape_on_toy_corpus(tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("")
    payload = run_bench(
        paths=[FIXTURES], baseline=baseline, repeats=1, interproc=True
    )

    assert json.loads(json.dumps(payload)) == payload
    assert payload["bench"] == "lint_speed_interproc"
    # The whole-program passes add the DT201/DT202 and DT3xx corpus
    # findings: at least one per catalog rule on the fixture directory.
    assert payload["violations"] >= len(RULES)
    assert payload["budget_seconds"] == INTERPROC_BUDGET_SECONDS

