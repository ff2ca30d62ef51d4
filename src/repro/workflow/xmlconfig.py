"""WOHA XML workflow configuration files (paper §III-B).

A WOHA user prepares an XML file naming each wjob's jar, main class, input
and output datasets, task counts/durations and the workflow deadline, then
runs ``hadoop dag /path/to/W_i.xml``.  This module parses and emits that
format and — like WOHA's Configuration Validator — infers prerequisite sets
``P_i`` from the input/output paths of the wjobs when ``<after>`` elements
are absent.

Schema (all durations in seconds)::

    <workflow name="ads-pipeline" deadline="3600" submit="0">
      <job name="extract" maps="20" reduces="4" map-duration="30" reduce-duration="120"
           jar="/user/x/extract.jar" main-class="com.x.Extract">
        <input>/logs/2014-03-07</input>
        <output>/stage/extracted</output>
      </job>
      <job name="aggregate" maps="10" reduces="2" map-duration="20" reduce-duration="90">
        <input>/stage/extracted</input>
        <output>/stage/agg</output>
        <after>extract</after>           <!-- optional; else inferred -->
      </job>
    </workflow>
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from typing import Callable, Dict, List, Optional, Set, TypeVar

from repro.workflow.model import WJob, Workflow, WorkflowValidationError, check_task_fields

__all__ = ["parse_workflow_xml", "workflow_to_xml", "infer_prerequisites"]

_N = TypeVar("_N", int, float)


def infer_prerequisites(jobs: List[WJob]) -> List[WJob]:
    """Derive ``P_i`` from dataset paths, as the Configuration Validator does.

    Job B depends on job A iff one of B's inputs is one of A's outputs.
    Jobs that already carry explicit prerequisites keep them (the explicit
    set wins; paths only fill gaps).

    Raises:
        WorkflowValidationError: if two jobs claim the same output path —
            the dependency would be ambiguous.
    """
    producer: Dict[str, str] = {}
    for job in jobs:
        for path in job.outputs:
            if path in producer:
                raise WorkflowValidationError(
                    f"output path {path!r} produced by both {producer[path]!r} and {job.name!r}"
                )
            producer[path] = job.name
    result: List[WJob] = []
    for job in jobs:
        if job.prerequisites:
            result.append(job)
            continue
        inferred: Set[str] = {
            producer[path]
            for path in job.inputs
            if path in producer and producer[path] != job.name
        }
        if inferred:
            result.append(
                WJob(
                    name=job.name,
                    num_maps=job.num_maps,
                    num_reduces=job.num_reduces,
                    map_duration=job.map_duration,
                    reduce_duration=job.reduce_duration,
                    prerequisites=frozenset(inferred),
                    inputs=job.inputs,
                    outputs=job.outputs,
                    jar_path=job.jar_path,
                    main_class=job.main_class,
                )
            )
        else:
            result.append(job)
    return result


def _require_attr(element: ET.Element, attr: str, context: str) -> str:
    value = element.get(attr)
    if value is None:
        raise WorkflowValidationError(f"{context}: missing required attribute {attr!r}")
    return value


def _numeric_attr(
    element: ET.Element, attr: str, context: str, parse: Callable[[str], _N],
    default: Optional[str] = None,
) -> _N:
    """An attribute read by ``parse`` (``int`` or ``float``); a bad or
    non-finite value is rejected naming the attribute and the value."""
    raw = _require_attr(element, attr, context) if default is None else element.get(attr, default)
    try:
        value = parse(raw)
    except ValueError as exc:
        kind = "an integer" if parse is int else "a number"
        raise WorkflowValidationError(
            f"{context}: {attr!r} must be {kind}, got {raw!r:.40}"
        ) from exc
    if not math.isfinite(value):
        raise WorkflowValidationError(
            f"{context}: {attr!r} must be a finite number, got {raw!r:.40}"
        )
    return value


def parse_workflow_xml(text: str) -> Workflow:
    """Parse a WOHA workflow configuration document into a :class:`Workflow`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise WorkflowValidationError(f"malformed workflow XML: {exc}") from exc
    if root.tag != "workflow":
        raise WorkflowValidationError(f"root element must be <workflow>, got <{root.tag}>")
    name = _require_attr(root, "name", "<workflow>")
    deadline_attr = root.get("deadline")
    deadline: Optional[float] = None
    try:
        submit = float(root.get("submit", "0"))
        if deadline_attr is not None:
            # A plain number is a *relative* deadline (the common case for
            # recurrent workflows); prefix "@" pins an absolute time.
            if deadline_attr.startswith("@"):
                deadline = float(deadline_attr[1:])
            else:
                deadline = submit + float(deadline_attr)
    except ValueError as exc:
        raise WorkflowValidationError(
            f"workflow {name!r}: bad submit or deadline attribute ({exc})"
        ) from exc

    jobs: List[WJob] = []
    for elem in root.findall("job"):
        job_name = _require_attr(elem, "name", f"workflow {name!r} <job>")
        context = f"workflow {name!r} job {job_name!r}"
        maps = _numeric_attr(elem, "maps", context, int)
        reduces = _numeric_attr(elem, "reduces", context, int)
        map_duration = _numeric_attr(elem, "map-duration", context, float, "0")
        reduce_duration = _numeric_attr(elem, "reduce-duration", context, float, "0")
        check_task_fields(context, maps, reduces, map_duration, reduce_duration,
                          keys=("maps", "reduces", "map-duration", "reduce-duration"))
        jobs.append(
            WJob(
                name=job_name,
                num_maps=maps,
                num_reduces=reduces,
                map_duration=map_duration,
                reduce_duration=reduce_duration,
                prerequisites=frozenset(e.text.strip() for e in elem.findall("after") if e.text),
                inputs=tuple(e.text.strip() for e in elem.findall("input") if e.text),
                outputs=tuple(e.text.strip() for e in elem.findall("output") if e.text),
                jar_path=elem.get("jar"),
                main_class=elem.get("main-class"),
            )
        )
    if not jobs:
        raise WorkflowValidationError(f"workflow {name!r} declares no jobs")
    jobs = infer_prerequisites(jobs)
    return Workflow(name, jobs, submit_time=submit, deadline=deadline)


def workflow_to_xml(workflow: Workflow) -> str:
    """Serialise a :class:`Workflow` back to the XML configuration format.

    Round-trips with :func:`parse_workflow_xml` (prerequisites are emitted
    explicitly, so path inference is not needed on re-parse).
    """
    root = ET.Element("workflow", {"name": workflow.name, "submit": repr(workflow.submit_time)})
    if workflow.deadline is not None:
        root.set("deadline", "@" + repr(workflow.deadline))
    for job in workflow.jobs:
        attrs = {
            "name": job.name,
            "maps": str(job.num_maps),
            "reduces": str(job.num_reduces),
            "map-duration": repr(job.map_duration),
            "reduce-duration": repr(job.reduce_duration),
        }
        if job.jar_path:
            attrs["jar"] = job.jar_path
        if job.main_class:
            attrs["main-class"] = job.main_class
        elem = ET.SubElement(root, "job", attrs)
        for path in job.inputs:
            ET.SubElement(elem, "input").text = path
        for path in job.outputs:
            ET.SubElement(elem, "output").text = path
        for pre in sorted(job.prerequisites):
            ET.SubElement(elem, "after").text = pre
    return ET.tostring(root, encoding="unicode")
