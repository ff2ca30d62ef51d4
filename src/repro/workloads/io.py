"""Workflow-set (de)serialization.

Single workflows have the WOHA XML format (:mod:`repro.workflow.xmlconfig`);
whole experiment inputs — many workflows with submit times and deadlines —
are stored as JSON documents so traces can be generated once and replayed
by the CLI and benches.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence

from repro.workflow.model import WJob, Workflow, WorkflowValidationError, check_task_fields

__all__ = ["workflows_to_json", "workflows_from_json", "save_workflows", "load_workflows"]

_FORMAT_VERSION = 1


def _job_to_dict(job: WJob) -> Dict[str, Any]:
    data: Dict[str, Any] = {
        "name": job.name,
        "maps": job.num_maps,
        "reduces": job.num_reduces,
        "map_duration": job.map_duration,
        "reduce_duration": job.reduce_duration,
        "after": sorted(job.prerequisites),
    }
    if job.inputs:
        data["inputs"] = list(job.inputs)
    if job.outputs:
        data["outputs"] = list(job.outputs)
    if job.jar_path:
        data["jar"] = job.jar_path
    if job.main_class:
        data["main_class"] = job.main_class
    return data


def _field(data: Dict[str, Any], key: str, where: str) -> Any:
    """A required field of a workflow or job object."""
    if key not in data:
        raise WorkflowValidationError(f"{where}: missing field {key!r}")
    return data[key]


def _name(value: Any, where: str) -> str:
    """A workflow or job name: a JSON string."""
    if not isinstance(value, str):
        raise WorkflowValidationError(f"{where}: 'name' must be a string, got {value!r:.40}")
    return value


def _count(value: Any, where: str, key: str) -> int:
    """A task count: a JSON integer, never a float, string or boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise WorkflowValidationError(f"{where}: {key!r} must be an integer, got {value!r:.40}")
    return value


def _number(value: Any, where: str, key: str) -> float:
    """A duration or time: a finite JSON number, never a string or boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise WorkflowValidationError(
            f"{where}: {key!r} must be a finite number, got {value!r:.40}"
        )
    return float(value)


def _strings(value: Any, where: str, key: str) -> List[str]:
    """A list of names or paths; a bare string is not one."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise WorkflowValidationError(
            f"{where}: {key!r} must be a list of strings, got {value!r:.40}"
        )
    return value


def _optional_string(data: Dict[str, Any], where: str, key: str) -> Optional[str]:
    """A free-text field such as a jar path: absent, or a JSON string."""
    value = data.get(key)
    if key in data and not isinstance(value, str):
        raise WorkflowValidationError(f"{where}: {key!r} must be a string, got {value!r:.40}")
    return value


def _objects(value: Any, where: str, key: str) -> List[Dict[str, Any]]:
    """A list of JSON objects: a set's workflows, a workflow's jobs."""
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise WorkflowValidationError(
            f"{where}: {key!r} must be a list of objects, got {value!r:.40}"
        )
    return value


def _job_from_dict(data: Dict[str, Any], workflow: str) -> WJob:
    raw_name = _field(data, "name", f"workflow {workflow!r} job")
    where = f"workflow {workflow!r} job {raw_name!r}"
    name = _name(raw_name, where)
    maps = _count(_field(data, "maps", where), where, "maps")
    reduces = _count(_field(data, "reduces", where), where, "reduces")
    map_duration = _number(_field(data, "map_duration", where), where, "map_duration")
    reduce_duration = _number(_field(data, "reduce_duration", where), where, "reduce_duration")
    check_task_fields(where, maps, reduces, map_duration, reduce_duration)
    return WJob(
        name=name,
        num_maps=maps,
        num_reduces=reduces,
        map_duration=map_duration,
        reduce_duration=reduce_duration,
        prerequisites=frozenset(_strings(data.get("after", []), where, "after")),
        inputs=tuple(_strings(data.get("inputs", []), where, "inputs")),
        outputs=tuple(_strings(data.get("outputs", []), where, "outputs")),
        jar_path=_optional_string(data, where, "jar"),
        main_class=_optional_string(data, where, "main_class"),
    )


def workflows_to_json(workflows: Sequence[Workflow]) -> str:
    """Serialise a workflow set to a JSON document."""
    doc = {
        "format": "repro-workflows",
        "version": _FORMAT_VERSION,
        "workflows": [
            {
                "name": w.name,
                "submit": w.submit_time,
                "deadline": w.deadline,
                "jobs": [_job_to_dict(j) for j in w.jobs],
            }
            for w in workflows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False)


def workflows_from_json(text: str) -> List[Workflow]:
    """Parse a workflow-set document (validates structure on load)."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "repro-workflows":
        raise ValueError(
            "not a repro workflow-set document: 'format' must be 'repro-workflows'"
        )
    version = doc.get("version")
    if type(version) is not int or version != _FORMAT_VERSION:  # not true, not 1.0
        raise ValueError(f"unsupported workflow-set 'version' {version!r:.40}")
    workflows = []
    for entry in _objects(_field(doc, "workflows", "workflow set"), "workflow set", "workflows"):
        name = _name(_field(entry, "name", "workflow"), "workflow")
        where = f"workflow {name!r}"
        jobs = _objects(_field(entry, "jobs", where), where, "jobs")
        deadline = entry.get("deadline")
        workflows.append(
            Workflow(
                name,
                [_job_from_dict(j, name) for j in jobs],
                submit_time=_number(entry.get("submit", 0.0), where, "submit"),
                deadline=None if deadline is None else _number(deadline, where, "deadline"),
            )
        )
    return workflows


def save_workflows(path: str, workflows: Sequence[Workflow]) -> None:
    with open(path, "w") as fh:
        fh.write(workflows_to_json(workflows) + "\n")


def load_workflows(path: str) -> List[Workflow]:
    with open(path) as fh:
        return workflows_from_json(fh.read())
