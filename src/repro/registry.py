"""The ``workflow-scheduler.xml`` plug-in registry (paper §III-B).

"Users may replace the Scheduling Plan Generator module and the Workflow
Scheduler module in WOHA with their own design and implementation ...
the substitution is as easy as modifying two lines of code in the
workflow-scheduler.xml configuration file."

This module reproduces that contract: a registry of named Workflow
Scheduler factories and Scheduling Plan Generator factories, plus a parser
for the two-line XML file selecting them.  User code registers its own
implementations under new names and points the config at them.

It also holds :data:`STACKS`, the six scheduler stacks the paper's §V
evaluation compares, which the CLI, the sweep runner, the figure benches
and the tests all build through :func:`make_stack`.

Example config::

    <workflow-scheduler>
      <scheduler>woha-dsl</scheduler>
      <plan-generator>lpf-capped</plan-generator>
    </workflow-scheduler>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.client import make_planner
from repro.core.plancache import PlanCache
from repro.core.scheduler import NaiveWohaScheduler, WohaScheduler
from repro.schedulers.base import WorkflowScheduler
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler

__all__ = [
    "SCHEDULER_REGISTRY",
    "PLAN_GENERATOR_REGISTRY",
    "register_scheduler",
    "register_plan_generator",
    "parse_scheduler_config",
    "ConfigError",
    "SchedulerStack",
    "STACKS",
    "STACK_NAMES",
    "make_stack",
]

SchedulerFactory = Callable[[], WorkflowScheduler]
PlannerFactory = Callable[[], Optional[Callable]]


class ConfigError(ValueError):
    """Raised for malformed or dangling workflow-scheduler.xml configs."""


SCHEDULER_REGISTRY: Dict[str, SchedulerFactory] = {
    "woha-dsl": lambda: WohaScheduler(queue_backend="dsl"),
    "woha-bst": lambda: WohaScheduler(queue_backend="bst"),
    "woha-naive": NaiveWohaScheduler,
    "fifo": FifoScheduler,
    "fair": FairScheduler,
    "edf": EdfScheduler,
}

PLAN_GENERATOR_REGISTRY: Dict[str, PlannerFactory] = {
    "none": lambda: None,
    "hlf-capped": lambda: make_planner("hlf"),
    "lpf-capped": lambda: make_planner("lpf"),
    "mpf-capped": lambda: make_planner("mpf"),
    "lpf-uncapped": lambda: make_planner("lpf", cap_search=False),
    "lpf-split": lambda: make_planner("lpf", pool="split"),
}


def register_scheduler(name: str, factory: SchedulerFactory, replace: bool = False) -> None:
    """Register a user Workflow Scheduler under ``name``."""
    if name in SCHEDULER_REGISTRY and not replace:
        raise ConfigError(f"scheduler {name!r} already registered")
    SCHEDULER_REGISTRY[name] = factory


def register_plan_generator(name: str, factory: PlannerFactory, replace: bool = False) -> None:
    """Register a user Scheduling Plan Generator under ``name``."""
    if name in PLAN_GENERATOR_REGISTRY and not replace:
        raise ConfigError(f"plan generator {name!r} already registered")
    PLAN_GENERATOR_REGISTRY[name] = factory


def parse_scheduler_config(text: str) -> Tuple[WorkflowScheduler, Optional[Callable]]:
    """Resolve a workflow-scheduler.xml document to live components.

    Returns ``(scheduler, planner)`` ready to hand to
    :class:`~repro.cluster.simulation.ClusterSimulation`.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ConfigError(f"malformed workflow-scheduler.xml: {exc}") from exc
    if root.tag != "workflow-scheduler":
        raise ConfigError(f"root element must be <workflow-scheduler>, got <{root.tag}>")
    sched_elem = root.find("scheduler")
    if sched_elem is None or not (sched_elem.text or "").strip():
        raise ConfigError("missing <scheduler> element")
    plan_elem = root.find("plan-generator")
    scheduler_name = sched_elem.text.strip()
    planner_name = (plan_elem.text or "").strip() if plan_elem is not None else "none"
    try:
        scheduler_factory = SCHEDULER_REGISTRY[scheduler_name]
    except KeyError:
        raise ConfigError(
            f"unknown scheduler {scheduler_name!r}; registered: {sorted(SCHEDULER_REGISTRY)}"
        ) from None
    try:
        planner_factory = PLAN_GENERATOR_REGISTRY[planner_name]
    except KeyError:
        raise ConfigError(
            f"unknown plan generator {planner_name!r}; registered: {sorted(PLAN_GENERATOR_REGISTRY)}"
        ) from None
    return scheduler_factory(), planner_factory()


@dataclass(frozen=True)
class SchedulerStack:
    """One scheduler stack of the paper's evaluation (§V).

    ``prioritizer`` names the job order the Scheduling Plan Generator plans
    with; ``None`` marks an Oozie baseline, which submits without a plan.
    """

    name: str  # the CLI and sweep name
    label: str  # the figure label
    scheduler: SchedulerFactory
    prioritizer: Optional[str] = None


#: The six stacks of the paper's evaluation, in its plotting order.
STACKS: Tuple[SchedulerStack, ...] = (
    SchedulerStack("edf", "EDF", EdfScheduler),
    SchedulerStack("fifo", "FIFO", FifoScheduler),
    SchedulerStack("fair", "Fair", FairScheduler),
    SchedulerStack("woha-hlf", "WOHA-HLF", WohaScheduler, "hlf"),
    SchedulerStack("woha-mpf", "WOHA-MPF", WohaScheduler, "mpf"),
    SchedulerStack("woha-lpf", "WOHA-LPF", WohaScheduler, "lpf"),
)

#: The stacks' names, in the same order.
STACK_NAMES: Tuple[str, ...] = tuple(stack.name for stack in STACKS)

_STACKS_BY_NAME = {stack.name: stack for stack in STACKS}


def make_stack(
    name: str, pool: str = "pooled", plan_cache: Optional[PlanCache] = None
) -> Tuple[WorkflowScheduler, str, Optional[Callable]]:
    """Build stack ``name`` afresh: ``(scheduler, submission mode, planner)``.

    A WOHA stack submits in ``"woha"`` mode with a planner over ``pool``
    (Algorithm 1 or the split-pool ablation), planning through
    ``plan_cache`` if one is given; a baseline submits in ``"oozie"`` mode
    with no planner.
    """
    try:
        stack = _STACKS_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown scheduler stack {name!r}; pick from {list(STACK_NAMES)}") from None
    scheduler = stack.scheduler()
    if stack.prioritizer is None:
        return scheduler, "oozie", None
    return scheduler, "woha", make_planner(stack.prioritizer, pool=pool, plan_cache=plan_cache)
