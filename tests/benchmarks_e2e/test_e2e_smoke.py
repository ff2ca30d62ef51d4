"""Tier-1 smoke test of the end-to-end benchmark (``benchmarks/e2e``).

Runs every workload at ``--quick`` size, untraced and traced, through the
same command line as the benchmark of record, each workload in its own
child process, and checks the result shape, the outputs checks, and that
the traced run reached every layer it is meant to measure.
"""

import json
import subprocess
import sys

import pytest

from benchmarks.e2e import ROOT, load_spec
from benchmarks.e2e.cli import WORKLOAD_NAMES


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"), "run",
         "--seed", "0", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads((out / "seed0.json").read_text())


def test_every_workload_ran_untraced_and_traced(results):
    assert sorted(results["workloads"]) == sorted(WORKLOAD_NAMES)
    for runs in results["workloads"].values():
        assert set(runs) == {"untraced", "traced"}


def test_every_metric_is_reported_with_its_unit(results):
    spec = load_spec()
    for name, runs in results["workloads"].items():
        for mode, section in (("untraced", "end_to_end"), ("traced", "per_layer")):
            run = runs[mode]
            assert sorted(run["metrics"]) == sorted(m["name"] for m in spec[section]), (name, mode)
            for metric in spec[section]:
                entry = run["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"]
                if entry["value"] is None:
                    # Only a percentile without ten samples beyond it is null.
                    assert metric["name"] in run["reasons"], (name, metric["name"])
                else:
                    assert isinstance(entry["value"], (int, float)), (name, metric["name"])


def test_no_operation_failed(results):
    for name, runs in results["workloads"].items():
        for mode, run in runs.items():
            assert run["attempted"] > 0
            assert run["failed"] == 0 and run["correct"], (name, mode, run["errors"])


def test_tracing_changes_no_simulation_outcome(results):
    for name in ("sim-yahoo", "sim-periodic"):
        runs = results["workloads"][name]
        untraced = runs["untraced"]["outputs"]
        traced = runs["traced"]["outputs"]
        assert untraced["runs_in_digest"] == traced["runs_in_digest"]
        assert untraced["outputs_sha256"] == traced["outputs_sha256"]


def test_every_expected_layer_was_reached(results):
    # A wrapper installed where no caller resolves it (a pre-bound hook, a
    # by-name import) would leave its layer at zero calls.
    for name, runs in results["workloads"].items():
        traced = runs["traced"]
        assert traced["expected_layers"], name
        for layer in traced["expected_layers"]:
            assert traced["layers"].get(layer, {}).get("calls", 0) > 0, (name, layer)


def test_recurrent_timed_phase_never_searches_and_cold_always_does(results):
    recurrent = results["workloads"]["serve-recurrent"]["traced"]["metrics"]
    cold = results["workloads"]["serve-cold"]["traced"]["metrics"]
    assert recurrent["capsearch.search.calls"]["value"] == 0
    assert recurrent["plancache.hit_ratio"]["value"] == 1.0
    assert cold["capsearch.search.calls"]["value"] > 0
    assert cold["plancache.hit_ratio"]["value"] == 0.0
