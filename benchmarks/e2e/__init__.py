"""End-to-end benchmark of record for the simulator and the planning service.

Four workloads, each run in a fresh process: two seeded cluster-simulation
workloads (``sim-yahoo``, ``sim-periodic``) and two closed-loop HTTP loads
against a ``PlanServer`` child process (``serve-recurrent``, ``serve-cold``).
An untraced run reports the end-to-end metrics; a ``--trace`` run wraps each
layer's entry points from outside and reports the per-layer breakdown.

Run from the repository root::

    python benchmarks/e2e/run.py run --seed 0 [--workload NAME] [--trace] [--quick]
    python benchmarks/e2e/run.py compare A.json B.json

See ``benchmarks/e2e/README.md`` for the workloads and metric tables.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

#: Repository root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parents[2]
#: Source tree of the ``repro`` package the benchmark measures.
SRC = ROOT / "src"
#: Default directory for per-run result and trace files (git-ignored).
DEFAULT_OUT = ROOT / "benchmarks" / "e2e" / "out"


def load_spec() -> Dict[str, Any]:
    """The benchmark definition: metric names, units, directions, bounds."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)
