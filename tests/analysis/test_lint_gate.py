"""Tier-1 gate: the source tree itself passes the determinism lint.

This is the test that makes the rules *binding*: a new set iteration in a
decision path, a wall-clock call, or a frozen-model mutation anywhere
under ``src/repro`` fails the suite.  Known debt must be budgeted in the
checked-in ``lint-baseline.txt`` (which reports stale entries, so the
budget only ever shrinks) or justified inline with ``# repro: allow[...]``.
"""

from pathlib import Path

import repro
from repro.analysis import lint_paths
from repro.cli import main as cli_main

PACKAGE_ROOT = Path(repro.__file__).parent
BASELINE = Path(__file__).parents[2] / "lint-baseline.txt"


def test_source_tree_is_lint_clean():
    report = lint_paths([PACKAGE_ROOT], baseline_path=BASELINE)
    rendered = "\n".join(v.render() for v in report.violations)
    assert report.clean, f"determinism lint violations:\n{rendered}"
    stale = "\n".join(f"{p}:{r}:{c}" for p, r, c in report.stale_baseline)
    assert not report.stale_baseline, f"stale baseline entries (delete them):\n{stale}"
    assert report.files_checked >= 50  # the whole package was actually walked


def test_cli_gate_matches_library_gate(capsys):
    exit_code = cli_main(["lint", str(PACKAGE_ROOT), "--baseline", str(BASELINE)])
    out = capsys.readouterr().out
    assert exit_code == 0, out


def test_source_tree_passes_the_interprocedural_gate(interproc_lint_runs):
    """The whole-program passes (DT201-DT202, DT301, DT303-DT305) are binding
    too: a set-order helper reachable from a decision path, a half-updated
    §IV structure on a hot path, or a stale or unknown directive anywhere
    in ``src/repro`` fails the suite.  The report is the shared
    ``interproc_lint_runs`` fixture's (``src/repro`` with this baseline)."""
    for run in interproc_lint_runs:
        report = run.report
        rendered = "\n".join(v.render() for v in report.violations)
        assert report.clean, f"interprocedural lint violations:\n{rendered}"
        assert not report.stale_baseline


def test_hot_path_registry_functions_all_resolve():
    """Every hot-path registry entry names a real function, so DT303's
    scope cannot silently shrink when one is renamed."""
    from repro.analysis.callgraph import build_call_graph_from_paths
    from repro.analysis.dataflow import HOT_PATH_REGISTRY

    graph = build_call_graph_from_paths([PACKAGE_ROOT])
    for mod_key, names in HOT_PATH_REGISTRY.items():
        assert mod_key in graph.modules, mod_key
        for name in names:
            fn = graph.modules[mod_key].functions.get(name)
            assert fn is not None, f"{mod_key}: {name} not found"
