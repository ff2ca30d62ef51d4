"""Workflow-set (de)serialization.

Single workflows have the WOHA XML format (:mod:`repro.workflow.xmlconfig`);
whole experiment inputs — many workflows with submit times and deadlines —
are stored as JSON documents so traces can be generated once and replayed
by the CLI and benches.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.workflow.model import WJob, Workflow

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


def _job_from_dict(data: Dict[str, Any]) -> WJob:
    return WJob(
        name=data["name"],
        num_maps=int(data["maps"]),
        num_reduces=int(data["reduces"]),
        map_duration=float(data["map_duration"]),
        reduce_duration=float(data["reduce_duration"]),
        prerequisites=frozenset(data.get("after", ())),
        inputs=tuple(data.get("inputs", ())),
        outputs=tuple(data.get("outputs", ())),
        jar_path=data.get("jar"),
        main_class=data.get("main_class"),
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
        raise ValueError("not a repro workflow-set document")
    if doc.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported workflow-set version {doc.get('version')!r}")
    return [
        Workflow(
            entry["name"],
            [_job_from_dict(j) for j in entry["jobs"]],
            submit_time=float(entry.get("submit", 0.0)),
            deadline=entry.get("deadline"),
        )
        for entry in doc["workflows"]
    ]


def save_workflows(path: str, workflows: Sequence[Workflow]) -> None:
    with open(path, "w") as fh:
        fh.write(workflows_to_json(workflows) + "\n")


def load_workflows(path: str) -> List[Workflow]:
    with open(path) as fh:
        return workflows_from_json(fh.read())
