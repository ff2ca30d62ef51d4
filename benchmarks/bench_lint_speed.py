"""Full-tree determinism-lint latency.

The lint gate in ``tests/analysis/test_lint_gate.py`` runs on every tier-1
invocation, so its cost is part of the suite's fixed overhead and must stay
small.  This bench times a full walk of ``src/repro`` (parse + all intra
rules + baseline reconciliation) and enforces the ISSUE's bar: a complete
run in **under 2 seconds** on the development corpus.  A second row times
the whole-program pass (``--interproc``: call graph, DT2xx, and the DT3xx
dataflow summaries and fixpoints) against a **5 second** bar.

The measurement test is marked ``perf`` and therefore deselected by the
default ``-m "not perf"`` addopts; run it explicitly with
``pytest benchmarks/bench_lint_speed.py -m perf``.  The tier-1 shape guard
lives in ``tests/integration/test_bench_lint_guard.py``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Sequence

import pytest

import repro
from repro.analysis import lint_paths
from repro.metrics.report import format_table

from benchmarks._helpers import emit

PACKAGE_ROOT = Path(repro.__file__).parent
BASELINE = Path(__file__).resolve().parent.parent / "lint-baseline.txt"

#: The ISSUE's acceptance bar for a full-tree lint, in seconds.
BUDGET_SECONDS = 2.0

#: The bar for the whole-program pass (call graph + DT2xx + DT3xx
#: summaries/fixpoints on top of the intra rules), in seconds.
INTERPROC_BUDGET_SECONDS = 5.0


def run_bench(
    paths: Optional[Sequence[Path]] = None,
    baseline: Optional[Path] = None,
    repeats: int = 3,
    interproc: bool = False,
) -> Dict[str, object]:
    """Best-of-``repeats`` full lint; returns timing + corpus stats."""
    paths = list(paths) if paths is not None else [PACKAGE_ROOT]
    baseline = baseline if baseline is not None else BASELINE
    best = float("inf")
    report = None
    for _ in range(repeats):
        start = time.perf_counter()
        report = lint_paths(paths, baseline_path=baseline, interproc=interproc)
        best = min(best, time.perf_counter() - start)
    return {
        "bench": "lint_speed_interproc" if interproc else "lint_speed",
        "files_checked": report.files_checked,
        "violations": len(report.violations),
        "best_seconds": round(best, 3),
        "files_per_sec": round(report.files_checked / best, 1),
        "budget_seconds": INTERPROC_BUDGET_SECONDS if interproc else BUDGET_SECONDS,
    }


@pytest.mark.perf
def test_full_tree_lint_under_budget():
    intra = run_bench()
    interproc = run_bench(interproc=True)
    table = format_table(
        ["pass", "files", "violations", "best (s)", "files/s", "budget (s)"],
        [
            [
                payload["bench"],
                payload["files_checked"],
                payload["violations"],
                payload["best_seconds"],
                payload["files_per_sec"],
                payload["budget_seconds"],
            ]
            for payload in (intra, interproc)
        ],
        title="Determinism lint, full src/repro walk",
        float_fmt="{:.3f}",
    )
    emit("lint_speed", table)
    assert intra["best_seconds"] < BUDGET_SECONDS
    assert interproc["best_seconds"] < INTERPROC_BUDGET_SECONDS


if __name__ == "__main__":
    print(run_bench())
    print(run_bench(interproc=True))
