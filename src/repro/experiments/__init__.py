"""Sharded experiment grids (DESIGN.md §11).

:mod:`repro.experiments.runner` fans a (scenario x scheduler x seed) grid
across worker processes and merges the per-cell metrics back into one
deterministic payload; :mod:`repro.experiments.scenarios` is the picklable
scenario registry the workers draw workloads from.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CellResult": "repro.experiments.runner",
    "ExperimentCell": "repro.experiments.runner",
    "GridResult": "repro.experiments.runner",
    "SCENARIOS": "repro.experiments.scenarios",
    "run_grid": "repro.experiments.runner",
    "shard_seed": "repro.experiments.runner",
})
