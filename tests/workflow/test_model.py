"""Unit tests for the workflow model (paper §II)."""

import pytest

from repro.workflow.model import WJob, Workflow, WorkflowValidationError


def wjob(name, maps=1, reduces=1, pre=()):
    return WJob(
        name=name,
        num_maps=maps,
        num_reduces=reduces,
        map_duration=10.0 if maps else 0.0,
        reduce_duration=20.0 if reduces else 0.0,
        prerequisites=frozenset(pre),
    )


class TestWJobValidation:
    def test_valid_job(self):
        job = wjob("a", maps=3, reduces=2)
        assert job.total_tasks == 5
        assert job.serial_length == 30.0
        assert job.total_work == 3 * 10 + 2 * 20

    def test_map_only_job(self):
        job = WJob(name="m", num_maps=4, num_reduces=0, map_duration=5.0, reduce_duration=0.0)
        assert job.serial_length == 5.0
        assert job.total_work == 20.0

    def test_reduce_only_job(self):
        job = WJob(name="r", num_maps=0, num_reduces=2, map_duration=0.0, reduce_duration=7.0)
        assert job.serial_length == 7.0

    def test_empty_name_rejected(self):
        with pytest.raises(WorkflowValidationError):
            wjob("")

    def test_zero_tasks_rejected(self):
        with pytest.raises(WorkflowValidationError):
            WJob(name="x", num_maps=0, num_reduces=0, map_duration=1.0, reduce_duration=1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(WorkflowValidationError, match="x: 'num_maps' must be >= 0, got -1"):
            WJob(name="x", num_maps=-1, num_reduces=1, map_duration=1.0, reduce_duration=1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(WorkflowValidationError,
                           match="x: 'map_duration' must be positive when 'num_maps' > 0"):
            WJob(name="x", num_maps=1, num_reduces=0, map_duration=0.0, reduce_duration=0.0)

    def test_self_dependency_rejected(self):
        with pytest.raises(WorkflowValidationError):
            wjob("x", pre=("x",))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("phase", ["map", "reduce"])
    def test_non_finite_duration_rejected(self, phase, value):
        durations = {"map_duration": 1.0, "reduce_duration": 1.0, f"{phase}_duration": value}
        with pytest.raises(WorkflowValidationError, match=f"non-finite {phase} duration"):
            WJob(name="x", num_maps=1, num_reduces=1, **durations)


class TestWorkflowValidation:
    def test_duplicate_job_names_rejected(self):
        with pytest.raises(WorkflowValidationError):
            Workflow("w", [wjob("a"), wjob("a")])

    def test_dangling_prerequisite_rejected(self):
        with pytest.raises(WorkflowValidationError):
            Workflow("w", [wjob("a", pre=("ghost",))])

    def test_cycle_rejected(self):
        jobs = [wjob("a", pre=("b",)), wjob("b", pre=("a",))]
        with pytest.raises(WorkflowValidationError, match="cycle"):
            Workflow("w", jobs)

    def test_three_cycle_rejected(self):
        jobs = [wjob("a", pre=("c",)), wjob("b", pre=("a",)), wjob("c", pre=("b",))]
        with pytest.raises(WorkflowValidationError, match="cycle"):
            Workflow("w", jobs)

    def test_empty_workflow_rejected(self):
        with pytest.raises(WorkflowValidationError):
            Workflow("w", [])

    def test_deadline_before_submit_rejected(self):
        with pytest.raises(WorkflowValidationError):
            Workflow("w", [wjob("a")], submit_time=100.0, deadline=50.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_submit_time_rejected(self, value):
        with pytest.raises(WorkflowValidationError, match="non-finite submit time"):
            Workflow("w", [wjob("a")], submit_time=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_deadline_rejected(self, value):
        with pytest.raises(WorkflowValidationError, match="non-finite deadline"):
            Workflow("w", [wjob("a")], deadline=value)


class TestWorkflowStructure:
    @pytest.fixture
    def diamond(self):
        return Workflow(
            "d",
            [wjob("a"), wjob("b", pre=("a",)), wjob("c", pre=("a",)), wjob("d", pre=("b", "c"))],
        )

    def test_dependents_inverts_prerequisites(self, diamond):
        assert diamond.dependents("a") == {"b", "c"}
        assert diamond.dependents("b") == {"d"}
        assert diamond.dependents("d") == frozenset()

    def test_roots_and_sinks(self, diamond):
        assert diamond.roots() == ("a",)
        assert diamond.sinks() == ("d",)

    def test_topological_order_respects_edges(self, diamond):
        order = diamond.topological_order()
        pos = {name: i for i, name in enumerate(order)}
        for job in diamond:
            for pre in job.prerequisites:
                assert pos[pre] < pos[job.name]

    def test_total_tasks_sums_jobs(self, diamond):
        assert diamond.total_tasks == 4 * 2

    def test_lookup_and_containment(self, diamond):
        assert "a" in diamond
        assert "zzz" not in diamond
        assert diamond.job("b").name == "b"
        assert len(diamond) == 4

    def test_relative_deadline(self):
        w = Workflow("w", [wjob("a")], submit_time=10.0, deadline=110.0)
        assert w.relative_deadline == 100.0
        assert Workflow("w", [wjob("a")]).relative_deadline is None

    def test_with_timing_copies(self, diamond):
        shifted = diamond.with_timing(submit_time=50.0, deadline=250.0)
        assert shifted.submit_time == 50.0
        assert shifted.deadline == 250.0
        assert diamond.submit_time == 0.0  # original untouched
        assert shifted.job_names() == diamond.job_names()

    def test_with_timing_shares_structure_not_the_memo(self, diamond):
        calls = []

        def count_calls(workflow):
            calls.append(workflow)
            return len(calls)

        assert diamond.derived(count_calls) == 1
        shifted = diamond.with_timing(submit_time=50.0, deadline=250.0)
        fresh = Workflow(diamond.name, diamond.jobs, submit_time=50.0, deadline=250.0)
        assert shifted.topological_order() is diamond.topological_order()
        assert shifted.topological_order() == fresh.topological_order()
        assert [shifted.dependents(n) for n in "abcd"] == [fresh.dependents(n) for n in "abcd"]
        assert shifted.job("c") is diamond.job("c")
        assert shifted.relative_deadline == fresh.relative_deadline == 200.0
        assert shifted.derived(count_calls) == 2 and diamond.derived(count_calls) == 1
        assert calls == [diamond, shifted]

    @pytest.mark.parametrize(
        "submit, deadline, message",
        [
            (10.0, 5.0, "deadline 5.0 precedes submit time 10.0"),
            (float("nan"), None, "non-finite submit time"),
            (0.0, float("inf"), "non-finite deadline"),
        ],
    )
    def test_with_timing_validates_the_new_timing(self, diamond, submit, deadline, message):
        with pytest.raises(WorkflowValidationError, match=f"d: {message}"):
            diamond.with_timing(submit_time=submit, deadline=deadline)

    def test_renamed_copies(self, diamond):
        clone = diamond.renamed("d2")
        assert clone.name == "d2"
        assert clone.total_tasks == diamond.total_tasks

    def test_iteration_yields_jobs(self, diamond):
        assert [j.name for j in diamond] == ["a", "b", "c", "d"]
