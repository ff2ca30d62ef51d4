"""Lint driver mechanics: suppressions, baselines, module keys, errors."""

import json
from pathlib import Path

import pytest

from repro.analysis import LintError, lint_paths, lint_source, load_baseline, module_key
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"


# -- inline suppressions ------------------------------------------------------


def test_inline_suppression_moves_violation_to_suppressed():
    report = lint_paths([FIXTURES / "suppressed_violation.py"])
    assert report.clean
    assert [v.rule for v in report.suppressed] == ["DT102"]


def test_suppression_is_rule_specific():
    source = "import time\ndef f():\n    return time.time()  # repro: allow[DT101]\n"
    report = lint_source(source, "repro/core/x.py")
    assert [v.rule for v in report.violations] == ["DT102"]
    assert not report.suppressed


def test_wildcard_and_comma_list_suppressions():
    starred = "import time\ndef f():\n    return time.time()  # repro: allow[*]\n"
    assert lint_source(starred, "repro/core/x.py").clean
    listed = (
        "import time\n"
        "def f(deadline):\n"
        "    return time.time() == deadline  # repro: allow[DT102, DT103]\n"
    )
    assert lint_source(listed, "repro/core/x.py").clean


def test_comma_list_suppression_records_every_rule():
    source = (
        "import time\n"
        "def f(deadline):\n"
        "    return time.time() == deadline  # repro: allow[DT102, DT103]\n"
    )
    report = lint_source(source, "repro/core/x.py")
    assert report.clean
    assert sorted(v.rule for v in report.suppressed) == ["DT102", "DT103"]


def test_allow_on_decorator_line_does_not_cover_the_def(tmp_path):
    # Suppressions are strictly line-anchored: an allow on the decorator
    # line neither silences the def-line violation (a wall-clock default
    # argument) nor counts as used — DT304 reports it stale in the same run.
    (tmp_path / "m.py").write_text(
        "import functools\n"
        "import time\n\n"
        "@functools.lru_cache(maxsize=None)  # repro: allow[DT102]\n"
        "def stamp(at=time.time()):\n"
        "    return at\n"
    )
    report = lint_paths([tmp_path], interproc=True)
    assert sorted(v.rule for v in report.violations) == ["DT102", "DT304"]


def test_allow_on_the_def_line_covers_a_decorated_def(tmp_path):
    (tmp_path / "m.py").write_text(
        "import functools\n"
        "import time\n\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def stamp(at=time.time()):  # repro: allow[DT102]\n"
        "    return at\n"
    )
    report = lint_paths([tmp_path], interproc=True)
    assert report.clean
    assert [v.rule for v in report.suppressed] == ["DT102"]


# -- baselines ----------------------------------------------------------------


def test_baseline_absorbs_budgeted_violations(tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("# known debt\ndt102_wallclock.py:DT102:1\n")
    report = lint_paths([FIXTURES / "dt102_wallclock.py"], baseline_path=baseline)
    assert report.clean
    assert [v.rule for v in report.baselined] == ["DT102"]
    assert not report.stale_baseline


def test_baseline_budget_does_not_hide_excess(tmp_path):
    source = "import time\ndef f():\n    return time.time() + time.time()\n"
    module = tmp_path / "two_hits.py"
    module.write_text(source)
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("two_hits.py:DT102:1\n")
    report = lint_paths([module], baseline_path=baseline)
    assert len(report.baselined) == 1
    assert len(report.violations) == 1  # the second hit still fails the run


def test_stale_baseline_entries_reported_and_fail_cli(tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("clean_module.py:DT101:2\n")
    report = lint_paths([FIXTURES / "clean_module.py"], baseline_path=baseline)
    assert report.clean
    assert report.stale_baseline == [("clean_module.py", "DT101", 2)]
    exit_code = cli_main(
        ["lint", str(FIXTURES / "clean_module.py"), "--baseline", str(baseline)]
    )
    assert exit_code == 1


def test_malformed_baseline_rejected(tmp_path):
    bad = tmp_path / "baseline.txt"
    bad.write_text("not a baseline line\n")
    with pytest.raises(LintError, match="malformed"):
        load_baseline(bad)


def test_unknown_rule_in_baseline_rejected(tmp_path):
    bad = tmp_path / "baseline.txt"
    bad.write_text("x.py:DT999:1\n")
    with pytest.raises(LintError, match="unknown rule"):
        load_baseline(bad)


def test_baseline_counts_accumulate(tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("x.py:DT102:1\nx.py:DT102:2\n")
    assert load_baseline(baseline) == {("x.py", "DT102"): 3}


# -- module keys and directives -----------------------------------------------


def test_module_key_normalises_to_package_root():
    assert module_key("/a/b/src/repro/core/plangen.py") == "repro/core/plangen.py"
    assert module_key("src/repro/noise.py") == "repro/noise.py"
    assert module_key("tests/analysis/fixtures/dt101.py") == "dt101.py"


def test_module_key_normalises_windows_separators():
    # Baselines written on one platform must bind on another.
    assert module_key(r"src\repro\core\plangen.py") == "repro/core/plangen.py"
    assert module_key(r"C:\work\src\repro\noise.py") == "repro/noise.py"
    assert module_key(r"fixtures\dt101.py") == "dt101.py"


def test_decision_path_directive_opts_file_in():
    source = "# repro: decision-path\ndef f(w):\n    return list(w.prerequisites)\n"
    assert not lint_source(source, "anywhere.py").clean
    undirected = "def f(w):\n    return list(w.prerequisites)\n"
    assert lint_source(undirected, "anywhere.py").clean


def test_randomness_ok_directive():
    source = "# repro: randomness-ok\nimport random\ndef f():\n    return random.random()\n"
    assert lint_source(source, "repro/core/x.py").clean


# -- driver errors and CLI ----------------------------------------------------


def test_syntax_error_raises_lint_error(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    with pytest.raises(LintError, match="cannot parse"):
        lint_paths([broken])


def test_empty_path_set_rejected(tmp_path):
    empty = tmp_path / "empty_dir_that_exists"
    empty.mkdir()
    with pytest.raises(LintError, match="no python files"):
        lint_paths([empty])


def test_cli_usage_error_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert cli_main(["lint", str(missing)]) == 2
    assert "lint:" in capsys.readouterr().err


# -- diff mode (only_keys) ----------------------------------------------------


def test_only_keys_restricts_reporting_to_selected_modules():
    full = lint_paths([FIXTURES])
    partial = lint_paths([FIXTURES], only_keys={"dt102_wallclock.py"})
    assert partial.files_checked == 1 < full.files_checked
    assert [v.rule for v in partial.violations] == ["DT102"]
    assert {v.path for v in partial.violations} == {"dt102_wallclock.py"}


def test_only_keys_skips_stale_baseline_accounting(tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("dt101_set_iteration.py:DT101:1\n")
    partial = lint_paths(
        [FIXTURES], baseline_path=baseline, only_keys={"dt102_wallclock.py"}
    )
    # A partial run cannot tell a stale entry from an unvisited module.
    assert partial.stale_baseline == []
    full = lint_paths([FIXTURES / "clean_module.py"], baseline_path=baseline)
    assert full.stale_baseline  # the full run still reports it


def test_only_keys_still_sees_whole_program_for_interproc():
    # The selected module's violation chains through an unselected helper:
    # the graph must cover the whole corpus even when reporting one file.
    partial = lint_paths(
        [FIXTURES / "interproc"], interproc=True, only_keys={"ip_sink.py"}
    )
    (hit,) = partial.violations
    assert hit.rule == "DT201"
    assert "ip_helpers.py::staged_inputs" in hit.message


def test_changed_module_keys_from_a_real_git_repo(tmp_path, monkeypatch):
    import shutil
    import subprocess

    from repro.cli import _changed_module_keys

    if shutil.which("git") is None:
        pytest.skip("git not installed")
    env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.chdir(tmp_path)
    subprocess.run(["git", "init", "-q"], check=True)
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("y = 1\n")
    subprocess.run(["git", "add", "."], check=True)
    subprocess.run(["git", "commit", "-qm", "seed"], check=True)
    assert _changed_module_keys("HEAD") == set()
    (tmp_path / "a.py").write_text("x = 2\n")
    assert _changed_module_keys("HEAD") == {"a.py"}
    assert _changed_module_keys("not-a-ref") is None  # falls back to full tree


def test_cli_diff_with_no_changed_files_exits_clean(tmp_path, monkeypatch, capsys):
    import shutil
    import subprocess

    if shutil.which("git") is None:
        pytest.skip("git not installed")
    for key in ("GIT_AUTHOR_NAME", "GIT_COMMITTER_NAME"):
        monkeypatch.setenv(key, "t")
    for key in ("GIT_AUTHOR_EMAIL", "GIT_COMMITTER_EMAIL"):
        monkeypatch.setenv(key, "t@t")
    monkeypatch.chdir(tmp_path)
    subprocess.run(["git", "init", "-q"], check=True)
    fixture = tmp_path / "dirty.py"
    fixture.write_text("import time\ndef f():\n    return time.time()\n")
    subprocess.run(["git", "add", "."], check=True)
    subprocess.run(["git", "commit", "-qm", "seed"], check=True)
    # The file has a violation, but nothing changed versus HEAD.
    assert cli_main(["lint", str(fixture), "--diff", "HEAD"]) == 0
    assert "no Python files changed" in capsys.readouterr().out
    # JSON mode keeps stdout parseable: the empty report there, the
    # message on stderr.
    assert cli_main(["lint", str(fixture), "--diff", "HEAD", "--format", "json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["clean"] is True
    assert payload["files_checked"] == 0
    assert payload["violations"] == []
    assert "no Python files changed" in captured.err
    # Once it changes, the violation is back in scope.
    fixture.write_text("import time\ndef g():\n    return time.time()\n")
    assert cli_main(["lint", str(fixture), "--diff", "HEAD"]) == 1


@pytest.mark.parametrize("verbose", [False, True])
def test_json_payload_has_a_fixed_key_set(verbose):
    payload = lint_paths([FIXTURES]).to_json_payload(verbose=verbose)
    keys = {
        "clean", "files_checked", "violations", "suppressed_count",
        "baselined_count", "stale_baseline",
    }
    if verbose:
        keys |= {"suppressed", "baselined"}
    assert set(payload) == keys


def test_text_report_ends_with_the_count_summary():
    report = lint_paths([FIXTURES / "suppressed_violation.py"])
    assert report.render().splitlines()[-1] == (
        "0 violation(s), 1 suppressed, 0 baselined, 1 file(s) checked"
    )


def test_directory_lint_is_deterministic_and_counts_files():
    first = lint_paths([FIXTURES])
    second = lint_paths([FIXTURES])
    assert first.files_checked == second.files_checked >= 8
    assert [v.render() for v in first.violations] == [v.render() for v in second.violations]
