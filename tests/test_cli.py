"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import main

WORKFLOW_XML = """
<workflow name="demo" deadline="1200">
  <job name="a" maps="20" reduces="4" map-duration="30" reduce-duration="100">
    <output>/s/a</output>
  </job>
  <job name="b" maps="10" reduces="2" map-duration="20" reduce-duration="60">
    <input>/s/a</input>
  </job>
</workflow>
"""


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "wf.xml"
    path.write_text(WORKFLOW_XML)
    return str(path)


class TestPlanCommand:
    def test_plan_prints_cap_and_steps(self, xml_file, capsys):
        assert main(["plan", xml_file, "--slots", "48"]) == 0
        out = capsys.readouterr().out
        assert "resource cap" in out
        assert "demo" in out
        assert "tasks required" in out

    def test_plan_no_cap_search_uses_full_slots(self, xml_file, capsys):
        assert main(["plan", xml_file, "--slots", "48", "--no-cap-search"]) == 0
        out = capsys.readouterr().out
        assert "resource cap  : 48 of 48" in out

    def test_plan_split_pool(self, xml_file, capsys):
        assert main(["plan", xml_file, "--slots", "48", "--pool", "split"]) == 0
        assert "(split)" in capsys.readouterr().out


class TestSimulateCommand:
    @pytest.mark.parametrize("scheduler", ["fifo", "fair", "edf", "woha-lpf"])
    def test_simulate_xml(self, xml_file, capsys, scheduler):
        assert main(["simulate", xml_file, "--scheduler", scheduler, "--nodes", "8"]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "miss ratio" in out

    def test_simulate_without_input_errors(self, capsys):
        assert main(["simulate"]) == 2

    def test_simulate_with_heartbeats(self, xml_file, capsys):
        assert main(["simulate", xml_file, "--nodes", "8", "--heartbeat", "3"]) == 0
        assert "demo" in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_then_simulate(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        assert main([
            "trace", "--out", trace_path, "--workflows", "6", "--jobs", "18",
            "--single-job", "2", "--task-scale", "0.3",
        ]) == 0
        assert "wrote 6 workflows" in capsys.readouterr().out
        assert main(["simulate", "--trace", trace_path, "--nodes", "16", "--scheduler", "edf"]) == 0
        out = capsys.readouterr().out
        assert "yw00" in out

    def test_trace_drop_single_job(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        assert main([
            "trace", "--out", trace_path, "--workflows", "6", "--jobs", "18",
            "--single-job", "2", "--drop-single-job",
        ]) == 0
        assert "wrote 4 workflows" in capsys.readouterr().out


class TestTraceDecisionsCommand:
    def test_jsonl_on_stdout(self, xml_file, capsys):
        import json

        assert main(["trace-decisions", xml_file, "--nodes", "8"]) == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines()]
        assert any(e["event"] == "decision" for e in events)
        assert any(e["event"] == "assign" for e in events)

    def test_jsonl_to_file_with_counters_and_explain(self, xml_file, tmp_path, capsys):
        from repro.trace import read_jsonl

        out_path = str(tmp_path / "decisions.jsonl")
        assert main([
            "trace-decisions", xml_file, "--nodes", "8",
            "--out", out_path, "--counters", "--explain", "demo",
        ]) == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.err
        assert "counters [" in captured.err
        assert "workflow demo:" in captured.err
        events = read_jsonl(out_path)
        assert any(e["event"] == "workflow_submitted" for e in events)

    def test_ring_capacity_limits_dump(self, xml_file, capsys):
        assert main(["trace-decisions", xml_file, "--nodes", "8", "--ring", "5"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 5

    def test_unknown_explain_workflow_errors(self, xml_file, capsys):
        assert main([
            "trace-decisions", xml_file, "--nodes", "8", "--explain", "ghost",
        ]) == 2

    def test_no_input_errors(self, capsys):
        assert main(["trace-decisions"]) == 2


class TestContractsFlag:
    def test_simulate_with_contracts_reports_assertions(self, xml_file, capsys):
        assert main([
            "simulate", xml_file, "--scheduler", "woha-lpf", "--nodes", "8",
            "--contracts",
        ]) == 0
        out = capsys.readouterr().out
        assert "contracts:" in out
        assert "assertions evaluated" in out

    def test_simulate_without_contracts_is_silent(self, xml_file, capsys):
        assert main(["simulate", xml_file, "--nodes", "8"]) == 0
        assert "contracts:" not in capsys.readouterr().out


class TestLintCommand:
    def test_list_rules_names_the_full_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "DT101", "DT102", "DT103", "DT104", "DT105", "DT106", "DT107",
            "DT201", "DT202",
            "DT301", "DT302", "DT303", "DT304", "DT305",
        ]

    def test_lint_defaults_to_package_tree(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out
        assert "file(s) checked" in out

    def test_lint_interproc_package_tree_is_clean(self, interproc_lint_runs):
        for run in interproc_lint_runs:
            assert run.exit_code == 0
            # The text summary ``--format text`` prints for this report.
            assert "0 violation(s)" in run.report.render()

    def test_lint_json_reports_sorted_records_and_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text(
            "import time\ndef f():\n    return time.time()\n"
        )
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["files_checked"] == 1
        (record,) = payload["violations"]
        assert record["module"] == "m.py"
        assert record["rule"] == "DT102"
        assert record["line"] == 3
        assert sorted(record) == ["col", "line", "message", "module", "rule"]
        assert "suppressed" not in payload  # records only under --verbose

    def test_lint_json_verbose_lists_suppressed_records(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text(
            "import time\ndef f():\n    return time.time()  # repro: allow[DT102]\n"
        )
        assert main(["lint", str(tmp_path), "--format", "json", "--verbose"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["suppressed_count"] == 1
        assert [r["rule"] for r in payload["suppressed"]] == ["DT102"]

    def test_lint_json_output_is_byte_stable(self, interproc_lint_runs):
        first, second = interproc_lint_runs
        assert first.exit_code == 0 and second.exit_code == 0
        assert second.stdout == first.stdout
        assert json.loads(first.stdout)["clean"] is True

    def test_lint_diff_unknown_ref_falls_back_to_full_report(self, capsys):
        assert main(["lint", "--diff", "definitely-not-a-ref"]) == 0
        captured = capsys.readouterr()
        assert "reporting the full tree" in captured.err
        assert "file(s) checked" in captured.out


class TestProfileCommand:
    def test_smoke_renders_top_table_and_exits_zero(self, capsys):
        assert main(["profile", "--scenario", "periodic", "--scale", "0.1",
                     "--nodes", "2", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profile: scenario=periodic" in out
        assert "µs/event" in out
        assert "top 5 by cumulative time" in out
        # The hot-spot table names actual simulator internals.
        assert "events=" in out and "wall=" in out

    def test_tottime_sort(self, capsys):
        assert main(["profile", "--scenario", "yahoo", "--scale", "0.05",
                     "--sort", "tottime", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 by internal time" in out

    def test_bad_top_errors(self, capsys):
        assert main(["profile", "--top", "0"]) == 2
        assert "--top must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--scheduler", "fifo"], ["--heartbeat", "9"]])
    def test_serve_scenario_rejects_cluster_flags(self, flag, capsys):
        assert main(["profile", "--scenario", "serve", *flag]) == 2
        err = capsys.readouterr().err
        assert f"{flag[0]} does not apply to --scenario serve" in err

    def test_help_names_the_serve_tenant_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "with --scenario serve, the tenant count" in out
        assert "woha-lpf" in out and "periodic" in out  # deferred choices still listed

    @pytest.mark.parametrize("argv", [["profile", "--reference"], ["sweep", "--batched"]])
    def test_retired_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


class TestServeCommand:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--slots", "0"], "total_slots must be >= 1"),
            (["--cache-capacity", "0"], "cache_capacity must be >= 1"),
        ],
    )
    def test_bad_config_exits_2_before_binding(self, capsys, flags, message):
        assert main(["serve", "--port", "0", *flags]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


class TestCallgraphCommand:
    def test_dot_on_stdout_defaults_to_package_tree(self, capsys):
        assert main(["callgraph"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph callgraph {")
        assert "select_task" in out

    def test_json_export_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "graph.json"
        assert main(["callgraph", "--format", "json", "--out", str(out_path)]) == 0
        dump = json.loads(out_path.read_text())
        assert set(dump) >= {"modules", "functions", "edges", "dynamic_calls"}
        assert any(f["qualname"].endswith("WohaScheduler.select_task")
                   for f in dump["functions"])
        assert "wrote" in capsys.readouterr().err

    def test_unreadable_path_exits_2(self, tmp_path, capsys):
        assert main(["callgraph", str(tmp_path / "nope.py")]) == 2
        assert "callgraph:" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_prints_cells_and_merged_summary(self, capsys):
        assert main([
            "sweep", "--scenario", "periodic", "--scheduler", "fifo",
            "--nodes", "4", "--scale", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "1-cell sweep" in out
        assert "periodic|fifo|seed=0" in out
        assert "merged:" in out

    def test_sweep_grid_spans_scenarios_schedulers_seeds(self, capsys):
        assert main([
            "sweep", "--scenario", "periodic", "--scenario", "yahoo",
            "--scheduler", "fifo", "--scheduler", "woha-lpf",
            "--seeds", "2", "--nodes", "4", "--scale", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "8-cell sweep" in out
        assert "yahoo|woha-lpf|seed=1" in out

    def test_sweep_json_payload_matches_inline_run(self, tmp_path, capsys):
        args = ["sweep", "--scenario", "periodic", "--scheduler", "fifo",
                "--nodes", "4", "--scale", "0.1"]
        inline = tmp_path / "inline.json"
        sharded = tmp_path / "sharded.json"
        assert main(args + ["--json", str(inline)]) == 0
        assert main(args + ["--workers", "2", "--json", str(sharded)]) == 0
        capsys.readouterr()
        assert inline.read_text() == sharded.read_text()
        payload = json.loads(inline.read_text())
        assert set(payload) == {"cells", "merged"}

    def test_sweep_rejects_bad_arguments(self, capsys):
        assert main(["sweep", "--seeds", "0"]) == 2
        assert main(["sweep", "--workers", "-1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag, value", [("--scheduler", "nope"), ("--scenario", "nope")])
    def test_unknown_choice_is_a_usage_error_listing_the_choices(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err
        assert ("'woha-lpf'" if flag == "--scheduler" else "'periodic'") in err
