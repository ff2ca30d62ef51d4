"""Wire fuzz for ``PlanningService.parse_workflow`` then ``plan``.

Valid workflows from :func:`tests.strategies.workflows` are serialized as
JSON and as XML, one field is mutated — a value of another type, NaN,
±inf, a string where a list goes, a huge task count — and the body is
fed through the service.  It must end one of two ways: a
:class:`~repro.workflow.model.Workflow` whose served plan bytes equal
``make_planner``'s for it, or a ``ValidationError`` whose first error
names the mutated field.  Any other exception fails the test.

Huge counts are checked at parse time only: they parse, and bounding the
planning work they imply is a separate matter.
"""

import asyncio
import json
import math
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import ValidationError, make_planner
from repro.serve.service import PlanningService, ServiceConfig
from repro.workflow.xmlconfig import workflow_to_xml
from repro.workloads.io import workflows_to_json
from tests.strategies import workflows

SLOTS = 24
HUGE = 10**30

#: (category, value) pairs a JSON field is swapped to: every value
#: outside the field's own categories.
JSON_VALUES = (
    ("str", "abc"),
    ("int", 3),
    ("float", 1.5),
    ("bool", True),
    ("null", None),
    ("list", [1]),
    ("object", {"a": 1}),
    ("float", math.nan),
    ("float", math.inf),
    ("float", -math.inf),
)

#: (level, JSON field) -> the categories it is not swapped to.  Times and
#: durations are written as floats, so an int is a swap the reader takes,
#: as is a null deadline (best effort); both plan.
JSON_FIELDS = {
    ("doc", "format"): {"str"},
    ("doc", "version"): {"int"},
    ("doc", "workflows"): {"list"},
    ("workflow", "name"): {"str"},
    ("workflow", "submit"): {"float"},
    ("workflow", "deadline"): {"float"},
    ("workflow", "jobs"): {"list"},
    ("job", "name"): {"str"},
    ("job", "maps"): {"int"},
    ("job", "reduces"): {"int"},
    ("job", "map_duration"): {"float"},
    ("job", "reduce_duration"): {"float"},
    ("job", "after"): set(),  # a list of strings; [1] is not one
    ("job", "inputs"): set(),
    ("job", "outputs"): set(),
    ("job", "jar"): {"str"},
    ("job", "main_class"): {"str"},
}
COUNTS = {"maps", "reduces"}

#: Every (level, field, swapped value), drawn uniformly.
JSON_MUTATIONS = [
    (level, field, value)
    for (level, field), keeps in sorted(JSON_FIELDS.items())
    for value in [v for category, v in JSON_VALUES if category not in keeps]
    + ([HUGE] if field in COUNTS else [])
]

#: Every (element, XML attribute, swapped value); XML values are strings.
_NOT_A_NUMBER = ("abc", "true", "[1]", "", "nan", "inf", "-inf")
XML_MUTATIONS = [
    (element, field, value)
    for element, field, values in (
        ("workflow", "submit", _NOT_A_NUMBER),
        ("workflow", "deadline", _NOT_A_NUMBER),
        ("job", "maps", _NOT_A_NUMBER + ("1.5", str(HUGE))),
        ("job", "reduces", _NOT_A_NUMBER + ("1.5", str(HUGE))),
        ("job", "map-duration", _NOT_A_NUMBER),
        ("job", "reduce-duration", _NOT_A_NUMBER),
    )
    for value in values
]


def _words(text):
    return text.replace("_", " ").replace("-", " ")


@st.composite
def json_bodies(draw):
    """(body, mutated field, whether the mutation is a huge count)."""
    workflow = draw(workflows(with_deadline=draw(st.booleans())))
    doc = json.loads(workflows_to_json([workflow]))
    level, field, value = draw(st.sampled_from(JSON_MUTATIONS))
    if level == "doc":
        target = doc
    elif level == "workflow":
        target = doc["workflows"][0]
    else:
        jobs = doc["workflows"][0]["jobs"]
        target = jobs[draw(st.integers(0, len(jobs) - 1))]
    target[field] = value
    return json.dumps(doc).encode(), field, value is HUGE


@st.composite
def xml_bodies(draw):
    workflow = draw(workflows(with_deadline=draw(st.booleans())))
    root = ET.fromstring(workflow_to_xml(workflow))
    element, field, value = draw(st.sampled_from(XML_MUTATIONS))
    if element == "workflow":
        target = root
    else:
        jobs = root.findall("job")
        target = jobs[draw(st.integers(0, len(jobs) - 1))]
    target.set(field, value)
    return ET.tostring(root), field, value == str(HUGE)


def check(body, content_type, field, huge):
    service = PlanningService(ServiceConfig(total_slots=SLOTS))
    try:
        workflow = service.parse_workflow(body, content_type)
    except ValidationError as exc:
        message = exc.report.errors[0]
        assert _words(field) in _words(message), (field, message)
        return
    if huge:
        return
    served = asyncio.run(service.plan(workflow))
    assert served.plan.to_bytes() == make_planner()(workflow, SLOTS).to_bytes()


@settings(max_examples=150, deadline=None)
@given(case=json_bodies())
def test_mutated_json_body_plans_exactly_or_names_the_field(case):
    body, field, huge = case
    check(body, "application/json", field, huge)


@settings(max_examples=100, deadline=None)
@given(case=xml_bodies())
def test_mutated_xml_body_plans_exactly_or_names_the_field(case):
    body, field, huge = case
    check(body, "application/xml", field, huge)
