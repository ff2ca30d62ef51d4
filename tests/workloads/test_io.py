"""Tests for workflow-set JSON (de)serialization."""

import pytest

from repro.workloads.io import (
    load_workflows,
    save_workflows,
    workflows_from_json,
    workflows_to_json,
)
from repro.workloads.yahoo import YahooTraceConfig, generate_yahoo_workflows


class TestRoundTrip:
    def test_yahoo_set_roundtrips(self):
        config = YahooTraceConfig(num_workflows=8, total_jobs=24, num_single_job=2, seed=5)
        original = generate_yahoo_workflows(config)
        restored = workflows_from_json(workflows_to_json(original))
        assert len(restored) == len(original)
        for a, b in zip(original, restored):
            assert a.name == b.name
            assert a.submit_time == b.submit_time
            assert a.deadline == b.deadline
            assert a.job_names() == b.job_names()
            for name in a.job_names():
                ja, jb = a.job(name), b.job(name)
                assert (ja.num_maps, ja.num_reduces) == (jb.num_maps, jb.num_reduces)
                assert (ja.map_duration, ja.reduce_duration) == (jb.map_duration, jb.reduce_duration)
                assert ja.prerequisites == jb.prerequisites

    def test_file_roundtrip(self, tmp_path, small_workflow):
        path = str(tmp_path / "set.json")
        save_workflows(path, [small_workflow])
        loaded = load_workflows(path)
        assert loaded[0].name == small_workflow.name
        assert loaded[0].deadline == small_workflow.deadline

    def test_best_effort_deadline_preserved(self, chain3):
        restored = workflows_from_json(workflows_to_json([chain3]))
        assert restored[0].deadline is None

    def test_metadata_fields_preserved(self):
        from repro.workflow.builder import WorkflowBuilder

        wf = (
            WorkflowBuilder("m")
            .job("a", maps=1, reduces=0, map_s=1, inputs=["/i"], outputs=["/o"], jar_path="/j.jar",
                 main_class="X")
            .build()
        )
        restored = workflows_from_json(workflows_to_json([wf]))[0]
        job = restored.job("a")
        assert job.inputs == ("/i",)
        assert job.outputs == ("/o",)
        assert job.jar_path == "/j.jar"
        assert job.main_class == "X"


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not a repro"):
            workflows_from_json('{"format": "something-else", "version": 1, "workflows": []}')

    @pytest.mark.parametrize("text", ["[]", "null", "3", '"repro-workflows"'])
    def test_non_object_document_rejected(self, text):
        with pytest.raises(ValueError, match="not a repro workflow-set document"):
            workflows_from_json(text)

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            workflows_from_json('{"format": "repro-workflows", "version": 99, "workflows": []}')

    def test_invalid_workflow_inside_rejected(self):
        doc = (
            '{"format": "repro-workflows", "version": 1, "workflows": '
            '[{"name": "w", "submit": 0, "deadline": null, "jobs": '
            '[{"name": "a", "maps": 1, "reduces": 0, "map_duration": 1, '
            '"reduce_duration": 0, "after": ["ghost"]}]}]}'
        )
        from repro.workflow.model import WorkflowValidationError

        with pytest.raises(WorkflowValidationError):
            workflows_from_json(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"format": "repro-workflows", "version": 1}',
             "workflow set: missing field 'workflows'"),
            ('{"format": "repro-workflows", "version": 1, "workflows": [{"jobs": []}]}',
             "workflow: missing field 'name'"),
            ('{"format": "repro-workflows", "version": 1, "workflows": [{"name": "w"}]}',
             "workflow 'w': missing field 'jobs'"),
        ],
    )
    def test_missing_set_and_workflow_fields_are_named(self, doc, message):
        from repro.workflow.model import WorkflowValidationError

        with pytest.raises(WorkflowValidationError, match=message):
            workflows_from_json(doc)
