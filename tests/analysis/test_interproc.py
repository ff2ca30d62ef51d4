"""The DT201-DT202 whole-program pass: fixtures, chains, suppressions."""

import ast
from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.callgraph import build_call_graph
from repro.analysis.interproc import INTERPROC_RULES, analyze_graph

FIXTURES = Path(__file__).parent / "fixtures" / "interproc"


def analyze(modules):
    """Raw interproc violations for ``{module_key: source}``."""
    graph = build_call_graph(
        {key: (src, ast.parse(src)) for key, src in modules.items()}
    )
    return analyze_graph(graph)


# -- the seeded fixture corpus ------------------------------------------------


def test_corpus_is_clean_without_the_analyzer():
    report = lint_paths([FIXTURES])
    assert report.clean
    assert not report.suppressed


def test_every_interproc_rule_fires_on_the_corpus():
    report = lint_paths([FIXTURES], interproc=True)
    fired = {v.rule for v in report.violations}
    assert fired == set(INTERPROC_RULES)


def test_corpus_findings_are_where_the_fixtures_say():
    report = lint_paths([FIXTURES], interproc=True)
    by_rule = {}
    for v in report.violations:
        by_rule.setdefault(v.rule, []).append(v)
    assert {v.path for v in by_rule["DT201"]} == {"ip_sink.py", "ip_annotated_sink.py"}
    assert [v.path for v in by_rule["DT202"]] == ["ip_dynamic.py"]


def test_dt201_message_carries_chain_and_source_location():
    report = lint_paths([FIXTURES], interproc=True)
    (hit,) = [v for v in report.violations if v.rule == "DT201" and v.path == "ip_sink.py"]
    assert "ip_sink.py::choose -> ip_helpers.py::staged_inputs" in hit.message
    assert "source at ip_helpers.py:" in hit.message


def test_interproc_report_is_deterministic():
    first = lint_paths([FIXTURES], interproc=True)
    second = lint_paths([FIXTURES], interproc=True)
    assert [v.render() for v in first.violations] == [v.render() for v in second.violations]


# -- DT201: taint -------------------------------------------------------------


def test_taint_propagates_through_intermediate_helpers():
    violations = analyze({
        "lib.py": (
            "import os\n\n"
            "def listing(root):\n    return os.listdir(root)\n\n"
            "def relay(root):\n    return listing(root)\n"
        ),
        "repro/core/x.py": (
            "from lib import relay\n\n"
            "def decide(root):\n    return relay(root)[0]\n"
        ),
    })
    (hit,) = [v for v in violations if v.rule == "DT201"]
    assert hit.path == "repro/core/x.py"
    assert "lib.py::relay -> lib.py::listing" in hit.message


def test_seeds_inside_decision_modules_left_to_intra_rules():
    # A DT101 source already in a decision-path module must not be
    # re-reported by the taint pass (the intra rules own it).
    violations = analyze({
        "repro/core/x.py": (
            "def unlock(w):\n    return [n for n in w.prerequisites]\n\n"
            "def decide(w):\n    return unlock(w)\n"
        ),
    })
    assert [v for v in violations if v.rule == "DT201"] == []


def test_allow_on_the_seed_line_stops_the_taint():
    violations = analyze({
        "lib.py": (
            "import os\n\n"
            "def listing(root):\n"
            "    return sorted(os.listdir(root))  # repro: allow[DT201]\n"
        ),
        "repro/core/x.py": (
            "from lib import listing\n\n"
            "def decide(root):\n    return listing(root)[0]\n"
        ),
    })
    assert [v for v in violations if v.rule == "DT201"] == []


# -- DT202: dynamic-call holes ------------------------------------------------


def test_dynamic_call_outside_decision_path_not_reported():
    violations = analyze({
        "lib.py": "def apply(fn, x):\n    return fn(x)\n",
    })
    assert [v for v in violations if v.rule == "DT202"] == []


def test_calls_annotation_silences_dt202_when_a_target_resolves():
    violations = analyze({
        "repro/core/x.py": (
            "def target(x):\n    return x\n\n"
            "def decide(fn, x):\n"
            "    return fn(x)  # repro: calls[target]\n"
        ),
    })
    assert [v for v in violations if v.rule == "DT202"] == []


# -- engine integration -------------------------------------------------------


def test_inline_allow_suppresses_interproc_violation_through_engine(tmp_path):
    (tmp_path / "lib.py").write_text(
        "import os\n\ndef listing(root):\n    return os.listdir(root)\n"
    )
    (tmp_path / "sink.py").write_text(
        "# repro: decision-path\n"
        "from lib import listing\n\n"
        "def decide(root):\n"
        "    return listing(root)[0]  # repro: allow[DT201]\n"
    )
    report = lint_paths([tmp_path], interproc=True)
    assert report.clean
    assert [v.rule for v in report.suppressed] == ["DT201"]


def test_baseline_budgets_interproc_violations(tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text(
        "ip_annotated_sink.py:DT201:1\n"
        "ip_sink.py:DT201:1\n"
        "ip_dynamic.py:DT202:1\n"
    )
    report = lint_paths([FIXTURES], baseline_path=baseline, interproc=True)
    assert report.clean
    assert not report.stale_baseline
    assert sorted({v.rule for v in report.baselined}) == list(INTERPROC_RULES)
