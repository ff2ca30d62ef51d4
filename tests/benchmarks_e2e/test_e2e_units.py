"""Unit tests for the end-to-end benchmark's percentile rule, repeat checker
and span tracing (``benchmarks/e2e``)."""

import json

import pytest

from benchmarks.e2e import sim
from benchmarks.e2e.compare import compare
from benchmarks.e2e.compare import main as compare_main
from benchmarks.e2e.stats import MIN_BEYOND, percentile
from benchmarks.e2e.trace import ROOT, EntryPoint, Tracer, install, layer_table
from repro.cluster.jobtracker import JobTracker
from repro.core.plancache import PlanCache
from repro.core.scheduler import WohaScheduler
from repro.events import Simulator
from repro.schedulers.base import WorkflowScheduler


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # unsorted input
        assert percentile(values, 50) == (50, None)
        assert percentile(values, 90) == (90, None)

    def test_needs_ten_samples_beyond(self):
        assert MIN_BEYOND == 10
        assert percentile(range(100), 90)[0] == 89  # exactly ten beyond
        value, reason = percentile(range(99), 90)
        assert value is None and "9" in reason
        assert percentile(range(20), 50)[0] == 9
        assert percentile(range(19), 50)[0] is None
        assert percentile(range(1000), 99)[0] == 989
        assert percentile(range(999), 99)[0] is None

    def test_empty_and_tiny_samples_report_a_reason(self):
        for values in ([], [1.0], [1.0, 2.0]):
            value, reason = percentile(values, 50)
            assert value is None and reason

    @pytest.mark.parametrize("pct", [0, 100, -5])
    def test_rejects_out_of_range_percentiles(self, pct):
        with pytest.raises(ValueError):
            percentile([1.0] * 50, pct)


SPEC = {
    "end_to_end": [
        {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "events.count", "unit": "count", "better": "lower"},
        {"name": "dsl.op.us", "unit": "us", "better": "lower"},
    ],
}


def result_set(p50=1.0, throughput=100.0, events=1000, dsl_us=2.0, miss=0.25, failed=0):
    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {"workloads": {"sim-yahoo": {
        "untraced": {
            "attempted": 100, "failed": failed,
            "metrics": {"latency_ms_p50": metric(p50, "ms"),
                        "throughput_per_s": metric(throughput, "1/s")},
            "outputs": {"deadline_miss_ratio": miss},
        },
        "traced": {
            "attempted": 20, "failed": 0,
            "metrics": {"events.count": metric(events, "count"), "dsl.op.us": metric(dsl_us, "us")},
            "outputs": {},
        },
    }}}


def flags(a, b):
    return {row[1]: row[5] for row in compare(a, b, SPEC) if row[5]}


class TestCompare:
    def test_identical_sets_agree(self):
        assert flags(result_set(), result_set()) == {}

    def test_difference_within_bound_is_not_flagged(self):
        assert flags(result_set(), result_set(p50=1.05, throughput=95.0)) == {}

    def test_difference_beyond_bound_is_flagged_with_direction(self):
        assert "worse" in flags(result_set(), result_set(p50=1.15))["latency_ms_p50"]
        assert "better" in flags(result_set(), result_set(p50=0.85))["latency_ms_p50"]
        assert "worse" in flags(result_set(), result_set(throughput=85.0))["throughput_per_s"]

    def test_per_layer_timings_have_no_bound(self):
        assert flags(result_set(), result_set(dsl_us=4.0)) == {}

    def test_any_difference_in_a_deterministic_value_is_flagged(self):
        assert flags(result_set(), result_set(events=1001)) == {"events.count": "differs"}
        assert flags(result_set(), result_set(miss=0.26)) == {
            "outputs.deadline_miss_ratio": "differs"
        }
        assert flags(result_set(), result_set(failed=1)) == {"error_rate": "differs"}

    def test_ratio_is_b_over_a(self):
        rows = {row[1]: row for row in compare(result_set(), result_set(p50=1.5), SPEC)}
        assert rows["latency_ms_p50"][4] == pytest.approx(1.5)

    def test_exit_status_reports_flags(self, tmp_path, capsys):
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        a.write_text(json.dumps(result_set()))
        b.write_text(json.dumps(result_set(p50=1.02)))
        c.write_text(json.dumps(result_set(p50=2.0)))
        assert compare_main(str(a), str(b), SPEC) == 0
        assert compare_main(str(a), str(c), SPEC) == 1
        assert "latency_ms_p50" in capsys.readouterr().out


def _inner(x):
    return x + 1


def _leaf(x):
    return x * 2


class TestTracer:
    def test_layer_calls_count_entries_from_outside_the_layer(self):
        tracer = Tracer()
        leaf = tracer.wrap("leaf", "b", _leaf)
        inner = tracer.wrap("inner", "a", lambda x: leaf(_inner(x)))
        outer = tracer.wrap("outer", "a", lambda x: inner(x) + inner(x))
        assert outer(1) == 8
        snapshot = tracer.snapshot()
        edges = {(p, s): calls for p, s, _layer, calls, _t, _self in snapshot["edges"]}
        assert edges == {(ROOT, "outer"): 1, ("outer", "inner"): 2, ("inner", "leaf"): 2}
        layers = layer_table(snapshot)
        assert layers["a"]["calls"] == 1 and layers["b"]["calls"] == 2
        for _p, _s, _layer, _calls, total, self_s in snapshot["edges"]:
            assert 0.0 <= self_s <= total
        assert layers["a"]["self_s"] + layers["b"]["self_s"] == pytest.approx(layers["a"]["total_s"])

    def test_outcomes_classify_calls(self):
        tracer = Tracer()
        pick = tracer.wrap("pick", "select", lambda x: x or None,
                           outcome=lambda _state, _args, result: "idle" if result is None else "task")
        for x in (0, 1, 0, 2):
            pick(x)
        assert layer_table(tracer.snapshot())["select"]["outcomes"] == {"idle": 2, "task": 2}

    def test_reset_keeps_wrappers_and_drops_spans(self):
        tracer = Tracer()
        leaf = tracer.wrap("leaf", "b", _leaf)
        leaf(1)
        tracer.reset()
        assert tracer.snapshot()["edges"] == []
        leaf(1)
        assert len(tracer.snapshot()["edges"]) == 1


class TestRefactorTolerance:
    def test_missing_entry_points_are_absent_and_skipped(self):
        original = vars(Simulator)["run"]
        installation = install(Tracer(), [
            EntryPoint("jobtracker.tick", "repro.cluster.jobtracker", "JobTracker._deleted_tick"),
            EntryPoint("gone", "repro.no_such_module", "anything"),
            EntryPoint("events", "repro.events", "Simulator.run"),
        ])
        try:
            assert installation.absent == [
                "repro.cluster.jobtracker:JobTracker._deleted_tick",
                "repro.no_such_module:anything",
            ]
            assert vars(Simulator)["run"] is not original
        finally:
            installation.uninstall()
        assert vars(Simulator)["run"] is original

    def test_uninstall_restores_inherited_and_static_attributes(self):
        static = vars(PlanCache)["fingerprint"]
        assert "select_tasks" not in vars(WohaScheduler)  # inherited from the base class
        installation = install(Tracer(), [
            EntryPoint("scheduler.select", "repro.core.scheduler", "WohaScheduler.select_tasks"),
            EntryPoint("plancache.fingerprint", "repro.core.plancache", "PlanCache.fingerprint"),
        ])
        try:
            assert "select_tasks" in vars(WohaScheduler)
            assert isinstance(vars(PlanCache)["fingerprint"], staticmethod)
            assert vars(PlanCache)["fingerprint"] is not static
        finally:
            installation.uninstall()
        assert "select_tasks" not in vars(WohaScheduler)
        assert vars(PlanCache)["fingerprint"] is static

    def test_traced_run_carries_on_when_code_paths_are_deleted(self, monkeypatch):
        monkeypatch.delattr(JobTracker, "_heartbeat_batched")
        monkeypatch.delattr(WorkflowScheduler, "select_tasks")
        result = sim.run_traced(sim.WORKLOADS["sim-periodic"], seed=0, quick=True)
        assert result["failed"] == 0, result["errors"]
        assert "repro.cluster.jobtracker:JobTracker._heartbeat_batched" in result["absent"]
        assert "repro.core.scheduler:WohaScheduler.select_tasks" in result["absent"]
        assert result["layers"]["jobtracker.tick"]["calls"] > 0
        assert result["layers"]["scheduler.select"]["calls"] > 0
