"""Every rule ID fires on its seeded fixture, and only there.

The fixtures under ``tests/analysis/fixtures/`` are the executable
specification of the rule catalog: one file per rule containing exactly
that violation, one clean decision-path module, and one inline-suppressed
hit.  ``repro lint`` must exit non-zero on each violating fixture.
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis import RULES, lint_paths, lint_source
from repro.analysis.dataflow import DATAFLOW_RULES
from repro.analysis.interproc import INTERPROC_RULES
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"

RULE_FIXTURES = {
    "DT101": "dt101_set_iteration.py",
    "DT102": "dt102_wallclock.py",
    "DT103": "dt103_float_eq.py",
    "DT104": "dt104_frozen_mutation.py",
    "DT105": "dt105_slots.py",
    "DT106": "dt106_eq_without_hash.py",
    "DT107": "dt107_order_pop.py",
}

#: The interprocedural rules' fixtures live in ``fixtures/interproc/`` and
#: are exercised (whole-corpus, ``interproc=True``) by test_interproc.py.
INTERPROC_FIXTURES = {
    "DT201": "interproc/ip_sink.py",
    "DT202": "interproc/ip_dynamic.py",
}

#: The dataflow rules' fixtures live in ``fixtures/dataflow/`` and are
#: exercised (whole-corpus, ``interproc=True``) by test_dataflow.py.
DATAFLOW_FIXTURES = {
    "DT301": "dataflow/df_fork_shared.py",
    "DT302": "dataflow/df_pool_closure.py",
    "DT303": "dataflow/df_atomicity.py",
    "DT304": "dataflow/df_stale_allow.py",
    "DT305": "dataflow/df_wallclock_taint.py",
}

def test_every_rule_has_a_fixture():
    assert (
        set(RULE_FIXTURES) | set(INTERPROC_FIXTURES) | set(DATAFLOW_FIXTURES)
        == set(RULES)
    )
    assert set(INTERPROC_FIXTURES) == set(INTERPROC_RULES)
    assert set(DATAFLOW_FIXTURES) == set(DATAFLOW_RULES)
    for rel in (*INTERPROC_FIXTURES.values(), *DATAFLOW_FIXTURES.values()):
        assert (FIXTURES / rel).is_file(), rel


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_fires_on_its_fixture(rule_id):
    report = lint_paths([FIXTURES / RULE_FIXTURES[rule_id]])
    fired = {v.rule for v in report.violations}
    assert fired == {rule_id}, f"expected only {rule_id}, got {fired}"


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_cli_exits_nonzero_on_fixture(rule_id, capsys):
    exit_code = cli_main(["lint", str(FIXTURES / RULE_FIXTURES[rule_id])])
    assert exit_code == 1
    out = capsys.readouterr().out
    assert rule_id in out


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_interproc_json_report_names_the_rule_on_its_fixture(rule_id, capsys):
    """The CI gate's form (``--interproc --format json``) reports every
    catalog rule at its fixture.  Whole-program rules lint their corpus
    directory: a fixture may lean on a sibling helper module."""
    if rule_id in RULE_FIXTURES:
        fixture = target = FIXTURES / RULE_FIXTURES[rule_id]
    else:
        fixture = FIXTURES / {**INTERPROC_FIXTURES, **DATAFLOW_FIXTURES}[rule_id]
        target = fixture.parent
    exit_code = cli_main(["lint", str(target), "--interproc", "--format", "json"])
    assert exit_code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    modules = {r["module"] for r in payload["violations"] if r["rule"] == rule_id}
    assert fixture.name in modules


def test_readme_rule_table_matches_the_catalog():
    readme = (Path(__file__).resolve().parents[2] / "README.md").read_text()
    documented = set(re.findall(r"^\| (DT\d{3}) \|", readme, flags=re.MULTILINE))
    assert documented == set(RULES)


def test_clean_fixture_passes():
    report = lint_paths([FIXTURES / "clean_module.py"])
    assert report.clean
    assert not report.suppressed


def test_cli_exits_zero_on_clean_fixture():
    assert cli_main(["lint", str(FIXTURES / "clean_module.py")]) == 0


def test_violations_carry_location_and_render():
    report = lint_paths([FIXTURES / "dt103_float_eq.py"])
    (violation,) = report.violations
    assert violation.line == 5
    rendered = violation.render()
    assert rendered.startswith("dt103_float_eq.py:5:")
    assert "DT103" in rendered


# -- rule-precision cases: constructs that must NOT fire ---------------------


def test_order_free_set_consumers_allowed():
    source = (
        "# repro: decision-path\n"
        "def f(workflow):\n"
        "    a = sorted(workflow.prerequisites)\n"
        "    b = frozenset(p for p in workflow.prerequisites)\n"
        "    c = len(workflow.dependents('x'))\n"
        "    d = {p for p in workflow.prerequisites}\n"
        "    return a, b, c, d\n"
    )
    assert lint_source(source, "repro/core/x.py").clean


def test_set_iteration_outside_decision_paths_allowed():
    source = "def f(s):\n    return [x for x in {1, 2, 3}]\n"
    assert lint_source(source, "repro/metrics/x.py").clean


def test_set_iteration_in_decision_path_dirs_fires():
    source = "def f(workflow):\n    return list(workflow.prerequisites)\n"
    for subdir in ("core", "schedulers", "structures", "cluster"):
        report = lint_source(source, f"repro/{subdir}/x.py")
        assert [v.rule for v in report.violations] == ["DT101"], subdir


def test_seeded_numpy_generator_allowed():
    source = (
        "import numpy as np\n"
        "def f(seed):\n"
        "    return np.random.default_rng(seed).normal()\n"
    )
    assert lint_source(source, "repro/core/x.py").clean


def test_global_numpy_random_fires():
    source = "import numpy as np\ndef f():\n    return np.random.normal()\n"
    report = lint_source(source, "repro/core/x.py")
    assert [v.rule for v in report.violations] == ["DT102"]


def test_randomness_allowed_in_noise_and_workloads():
    source = "import random\ndef f():\n    return random.random()\n"
    assert lint_source(source, "repro/noise.py").clean
    assert lint_source(source, "repro/workloads/yahoo.py").clean
    assert not lint_source(source, "repro/core/x.py").clean


def test_setattr_in_post_init_allowed():
    source = (
        "class Plan:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
    )
    assert lint_source(source, "repro/core/x.py").clean


def test_nonfloat_identifiers_not_durationish():
    source = "def f(index, count):\n    return index == count\n"
    assert lint_source(source, "repro/core/x.py").clean


def test_dt107_set_pop_and_dict_popitem_fire():
    source = (
        "# repro: decision-path\n"
        "def f(workflow, table):\n"
        "    a = workflow.prerequisites.pop()\n"
        "    b = table.popitem()\n"
        "    return a, b\n"
    )
    report = lint_source(source, "x.py")
    assert [v.rule for v in report.violations] == ["DT107", "DT107"]


def test_dt107_does_not_double_report_the_inner_iter_as_dt101():
    source = (
        "# repro: decision-path\n"
        "def f(workflow):\n"
        "    return next(iter(workflow.prerequisites))\n"
    )
    report = lint_source(source, "x.py")
    assert [v.rule for v in report.violations] == ["DT107"]


def test_dt107_precision_deterministic_extractions_allowed():
    source = (
        "# repro: decision-path\n"
        "def f(workflow, queue, history):\n"
        "    a = min(workflow.prerequisites)\n"
        "    b = next(iter(sorted(workflow.prerequisites)))\n"
        "    c = queue.pop(0)\n"                  # positional: list semantics
        "    d = history.popitem(last=False)\n"   # keyword: declared FIFO order
        "    return a, b, c, d\n"
    )
    assert lint_source(source, "x.py").clean


def test_eq_with_hash_allowed_and_non_decision_path_exempt():
    source = (
        "class K:\n"
        "    def __eq__(self, o):\n"
        "        return True\n"
        "    def __hash__(self):\n"
        "        return 0\n"
    )
    assert lint_source(source, "repro/core/x.py").clean
    no_hash = "class K:\n    def __eq__(self, o):\n        return True\n"
    assert lint_source(no_hash, "repro/metrics/x.py").clean
    assert not lint_source(no_hash, "repro/core/x.py").clean
