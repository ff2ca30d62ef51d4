"""Unit tests for the WOHA XML configuration format."""

import pytest

from repro.workflow.model import WorkflowValidationError
from repro.workflow.xmlconfig import infer_prerequisites, parse_workflow_xml, workflow_to_xml
from repro.workflow.model import WJob


BASIC = """
<workflow name="pipe" deadline="3600" submit="10">
  <job name="extract" maps="20" reduces="4" map-duration="30" reduce-duration="120"
       jar="/user/x/extract.jar" main-class="com.x.Extract">
    <input>/logs/day</input>
    <output>/stage/extracted</output>
  </job>
  <job name="agg" maps="10" reduces="2" map-duration="20" reduce-duration="90">
    <input>/stage/extracted</input>
    <output>/stage/agg</output>
  </job>
</workflow>
"""


class TestParse:
    def test_basic_fields(self):
        w = parse_workflow_xml(BASIC)
        assert w.name == "pipe"
        assert w.submit_time == 10.0
        assert w.deadline == 10.0 + 3600.0  # plain number = relative deadline
        assert len(w) == 2

    def test_prerequisites_inferred_from_paths(self):
        w = parse_workflow_xml(BASIC)
        assert w.prerequisites("agg") == {"extract"}

    def test_absolute_deadline_with_at_prefix(self):
        xml = '<workflow name="w" deadline="@500"><job name="a" maps="1" reduces="0" map-duration="5"/></workflow>'
        assert parse_workflow_xml(xml).deadline == 500.0

    def test_no_deadline(self):
        xml = '<workflow name="w"><job name="a" maps="1" reduces="0" map-duration="5"/></workflow>'
        assert parse_workflow_xml(xml).deadline is None

    def test_explicit_after_overrides_inference(self):
        xml = """
        <workflow name="w">
          <job name="a" maps="1" reduces="0" map-duration="5"><output>/o</output></job>
          <job name="b" maps="1" reduces="0" map-duration="5"/>
          <job name="c" maps="1" reduces="0" map-duration="5">
            <input>/o</input><after>b</after>
          </job>
        </workflow>
        """
        w = parse_workflow_xml(xml)
        assert w.prerequisites("c") == {"b"}  # explicit wins; path not added

    def test_malformed_xml_rejected(self):
        with pytest.raises(WorkflowValidationError, match="malformed"):
            parse_workflow_xml("<workflow name='w'><job")

    def test_wrong_root_rejected(self):
        with pytest.raises(WorkflowValidationError, match="root element"):
            parse_workflow_xml("<job name='a'/>")

    def test_missing_name_rejected(self):
        with pytest.raises(WorkflowValidationError, match="name"):
            parse_workflow_xml("<workflow><job name='a' maps='1' reduces='0'/></workflow>")

    def test_missing_maps_rejected(self):
        with pytest.raises(WorkflowValidationError):
            parse_workflow_xml("<workflow name='w'><job name='a' reduces='0'/></workflow>")

    def test_bad_numeric_rejected(self):
        with pytest.raises(WorkflowValidationError, match="'maps' must be an integer, got 'lots'"):
            parse_workflow_xml(
                "<workflow name='w'><job name='a' maps='lots' reduces='0' map-duration='5'/></workflow>"
            )

    def test_no_jobs_rejected(self):
        with pytest.raises(WorkflowValidationError, match="no jobs"):
            parse_workflow_xml("<workflow name='w'/>")


class TestRoundTrip:
    def test_roundtrip_preserves_structure(self):
        original = parse_workflow_xml(BASIC)
        clone = parse_workflow_xml(workflow_to_xml(original))
        assert clone.name == original.name
        assert clone.submit_time == original.submit_time
        assert clone.deadline == original.deadline
        assert clone.job_names() == original.job_names()
        for name in original.job_names():
            a, b = original.job(name), clone.job(name)
            assert (a.num_maps, a.num_reduces) == (b.num_maps, b.num_reduces)
            assert (a.map_duration, a.reduce_duration) == (b.map_duration, b.reduce_duration)
            assert a.prerequisites == b.prerequisites
            assert a.inputs == b.inputs and a.outputs == b.outputs


class TestInference:
    def _job(self, name, ins=(), outs=(), pre=()):
        return WJob(
            name=name,
            num_maps=1,
            num_reduces=0,
            map_duration=1.0,
            reduce_duration=0.0,
            prerequisites=frozenset(pre),
            inputs=tuple(ins),
            outputs=tuple(outs),
        )

    def test_duplicate_output_rejected(self):
        jobs = [self._job("a", outs=("/x",)), self._job("b", outs=("/x",))]
        with pytest.raises(WorkflowValidationError, match="produced by both"):
            infer_prerequisites(jobs)

    def test_diamond_inferred(self):
        jobs = [
            self._job("a", outs=("/a",)),
            self._job("b", ins=("/a",), outs=("/b",)),
            self._job("c", ins=("/a",), outs=("/c",)),
            self._job("d", ins=("/b", "/c",)),
        ]
        inferred = {j.name: j.prerequisites for j in infer_prerequisites(jobs)}
        assert inferred["b"] == {"a"}
        assert inferred["d"] == {"b", "c"}

    def test_external_inputs_ignored(self):
        jobs = [self._job("a", ins=("/external/data",))]
        assert infer_prerequisites(jobs)[0].prerequisites == frozenset()
