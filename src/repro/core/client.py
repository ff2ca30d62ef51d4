"""The WOHA client (paper §III-B, steps a-h).

``hadoop dag /path/to/W_i.xml`` runs, on the client machine:

1. the **Configuration Validator** — parse the XML, check jar files and
   input datasets against HDFS, infer the prerequisite sets ``P_i``;
2. the **Scheduling Plan Generator** — query the master for the system slot
   count, binary-search the resource cap, run Algorithm 1;
3. the **Coordinator / Submitter Job Generator** — ship configuration +
   plan to the JobTracker, which creates the map-only submitter job.

All of the expensive analysis happens here, off the master — that is the
framework's central design decision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Optional, Sequence, Tuple, Union

from repro.core.capsearch import (
    CapSearchResult,
    SplitCapSearchResult,
    find_min_cap,
    find_min_cap_split,
    plan_from_search,
)
from repro.core.plancache import PlanCache, PlanCacheEntry
from repro.core.plangen import generate_requirements, generate_requirements_split
from repro.core.priorities import PRIORITIZERS, Prioritizer
from repro.core.progress import ProgressPlan
from repro.hdfs import HdfsNamespace
from repro.workflow.model import Workflow, WorkflowValidationError
from repro.workflow.xmlconfig import parse_workflow_xml

if TYPE_CHECKING:  # the planning core never imports the master at run time
    from repro.cluster.jobtracker import JobTracker, WorkflowInProgress

__all__ = [
    "ValidationError",
    "ValidationReport",
    "WohaClient",
    "make_planner",
    "plan_cache_mode",
]


def plan_cache_mode(
    pool: str = "pooled", cap_search: bool = True, map_fraction: float = 2.0 / 3.0
) -> Tuple[str, bool, float]:
    """The planner-configuration part of a :class:`PlanCache` key.

    The one owner of the ``mode`` tuple: :class:`WohaClient`,
    :func:`make_planner` and the serve tier's batcher all key through it,
    so entries built for the same configuration collide wherever they
    were built.
    """
    return (pool, cap_search, map_fraction)


def _plan_entry(
    workflow: Workflow,
    job_order: Sequence[str],
    total_slots: int,
    cap_search: bool,
    pool: str = "pooled",
    map_fraction: float = 2.0 / 3.0,
    problem=None,
    memo=None,
    plans: Optional[Dict[Hashable, ProgressPlan]] = None,
) -> PlanCacheEntry:
    """One full planning run: ``(cap-search result, plan)``.

    The unit both :class:`WohaClient` and :func:`make_planner` compute, and
    the unit :class:`~repro.core.plancache.PlanCache` stores.  The search
    result is ``None`` when cap search is off; otherwise it is stored with
    ``batches=None``, since the plan it stood for is built.

    ``problem``/``memo``/``plans`` are the serve tier's sharing seams
    (:mod:`repro.serve.batching`) for requests that differ only in
    deadline or slot count: a pre-built ``_SimProblem``, a cross-search
    probe memo, and a memo of finished plans keyed by the search outcome —
    ``(cap, feasible)`` pooled, ``(map_cap, reduce_cap, feasible)`` split,
    or the slot count with cap search off.  A plan is a pure function of
    the problem and that outcome, so equal outcomes share one plan object
    (and its cached wire bytes).  All three default to per-call state,
    which is the plain client-side path.
    """
    order = tuple(job_order)
    if plans is None:
        plans = {}
    result: Union[CapSearchResult, SplitCapSearchResult, None] = None
    if not cap_search:
        outcome: Hashable = total_slots
    elif pool == "split":
        result = find_min_cap_split(
            workflow, total_slots, map_fraction, job_order=order, problem=problem, memo=memo
        )
        outcome = (result.map_cap, result.reduce_cap, result.feasible)
    else:
        result = find_min_cap(workflow, total_slots, job_order=order, problem=problem, memo=memo)
        outcome = (result.cap, result.feasible)
    plan = plans.get(outcome)
    if plan is None:
        if result is not None:
            plan = plan_from_search(workflow, order, result)
        elif pool == "split":
            map_cap = max(1, round(total_slots * map_fraction))
            plan = generate_requirements_split(
                workflow, map_cap, max(1, total_slots - map_cap), order, problem=problem
            )
        else:
            plan = generate_requirements(
                workflow, total_slots, order, feasible=True, problem=problem
            )
        plans[outcome] = plan
    if result is not None:
        result = replace(result, batches=None)
    return result, plan


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the Configuration Validator.

    ``errors`` carries structural failures that precede the HDFS checks —
    malformed XML, bad attributes, dependency cycles — so a single report
    type describes every way a submission can be rejected.
    """

    missing_inputs: Tuple[str, ...]
    missing_jars: Tuple[str, ...]
    errors: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.missing_inputs and not self.missing_jars and not self.errors

    def to_payload(self) -> dict:
        """JSON-ready dict (the serve tier's 400-response body)."""
        return {
            "ok": self.ok,
            "missing_inputs": list(self.missing_inputs),
            "missing_jars": list(self.missing_jars),
            "errors": list(self.errors),
        }


class ValidationError(WorkflowValidationError):
    """A submission the Configuration Validator rejected.

    Unlike a bare :class:`~repro.workflow.model.WorkflowValidationError`
    (which it subclasses, so existing handlers keep working), it carries
    the structured :class:`ValidationReport`, so callers — the serve tier's
    400 responses in particular — can show *what* failed instead of parsing
    an exception string.
    """

    def __init__(self, report: ValidationReport, message: Optional[str] = None) -> None:
        if message is None:
            parts = []
            if report.errors:
                parts.append("errors " + "; ".join(report.errors))
            if report.missing_inputs:
                parts.append(f"missing inputs {list(report.missing_inputs)}")
            if report.missing_jars:
                parts.append(f"missing jars {list(report.missing_jars)}")
            message = ", ".join(parts) or "validation failed"
        super().__init__(message)
        self.report = report


def _resolve_prioritizer(prioritizer: Union[str, Prioritizer]) -> Prioritizer:
    if callable(prioritizer):
        return prioritizer
    try:
        return PRIORITIZERS[prioritizer]
    except KeyError:
        raise ValueError(
            f"unknown prioritizer {prioritizer!r}; pick from {sorted(PRIORITIZERS)}"
        ) from None


class WohaClient:
    """A client node submitting workflows to a JobTracker.

    Args:
        jobtracker: the master to submit to.
        hdfs: the namespace used for configuration validation; ``None``
            skips dataset/jar existence checks (pure-simulation runs).
        prioritizer: intra-workflow job priority policy — ``"hlf"``,
            ``"lpf"``, ``"mpf"`` or a callable.
        cap_search: when False, plans are generated at the full system slot
            count (the paper's pre-improvement behaviour, kept for the
            Fig 2 ablation).
        plan_cache: optional :class:`~repro.core.plancache.PlanCache`;
            recurrent instances of one template then share a single cap
            search + Algorithm 1 run.
    """

    def __init__(
        self,
        jobtracker: JobTracker,
        hdfs: Optional[HdfsNamespace] = None,
        prioritizer: Union[str, Prioritizer] = "lpf",
        cap_search: bool = True,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        self.jobtracker = jobtracker
        self.hdfs = hdfs
        self.prioritizer = _resolve_prioritizer(prioritizer)
        self.cap_search = cap_search
        self.plan_cache = plan_cache

    # -- Configuration Validator -------------------------------------------------

    def validate(self, workflow: Workflow) -> ValidationReport:
        """Check jar files and input datasets exist (step b).

        Inputs produced by another wjob of the same workflow are exempt:
        they will exist by the time the consumer runs.
        """
        if self.hdfs is None:
            return ValidationReport(missing_inputs=(), missing_jars=())
        produced = {path for job in workflow.jobs for path in job.outputs}
        missing_inputs = tuple(
            path
            for job in workflow.jobs
            for path in job.inputs
            if path not in produced and not self.hdfs.exists(path)
        )
        missing_jars = tuple(
            job.jar_path
            for job in workflow.jobs
            if job.jar_path is not None and not self.hdfs.exists(job.jar_path)
        )
        return ValidationReport(missing_inputs=missing_inputs, missing_jars=missing_jars)

    # -- Scheduling Plan Generator -------------------------------------------------

    def generate_plan(self, workflow: Workflow, total_slots: Optional[int] = None) -> ProgressPlan:
        """Cap search + Algorithm 1 (steps c-d), entirely client-side."""
        if total_slots is None:
            total_slots = self.jobtracker.total_slots  # the one master query
        job_order = self.prioritizer(workflow)  # repro: calls[repro.core.priorities.hlf_order, repro.core.priorities.lpf_order, repro.core.priorities.mpf_order]
        if self.plan_cache is not None:
            _result, plan = self.plan_cache.get_or_build(
                workflow,
                job_order,
                total_slots,
                mode=plan_cache_mode(cap_search=self.cap_search),
                build=lambda: _plan_entry(workflow, job_order, total_slots, self.cap_search),
            )
            return plan
        return _plan_entry(workflow, job_order, total_slots, self.cap_search)[1]

    # -- submission -------------------------------------------------------------------

    def submit(self, workflow: Workflow) -> WorkflowInProgress:
        """Validate, plan and submit (steps b-h).

        Raises:
            ValidationError: when the Configuration Validator rejects the
                workflow; ``.report`` holds the structured findings.
        """
        report = self.validate(workflow)
        if not report.ok:
            raise ValidationError(
                report,
                f"workflow {workflow.name!r}: missing inputs {list(report.missing_inputs)}, "
                f"missing jars {list(report.missing_jars)}",
            )
        plan = self.generate_plan(workflow)
        return self.jobtracker.submit_workflow(workflow, plan=plan, use_submitter=True)

    def submit_xml(self, xml_text: str) -> WorkflowInProgress:
        """The ``hadoop dag W_i.xml`` entry point (step a).

        Malformed or structurally invalid XML raises the same typed
        :class:`ValidationError` as a failed HDFS check — the parse failure
        lands in ``report.errors`` — so callers handle one exception shape
        for every rejection path.
        """
        try:
            workflow = parse_workflow_xml(xml_text)
        except ValidationError:
            raise
        except WorkflowValidationError as exc:
            raise ValidationError(
                ValidationReport(missing_inputs=(), missing_jars=(), errors=(str(exc),))
            ) from exc
        return self.submit(workflow)


def make_planner(
    prioritizer: Union[str, Prioritizer] = "lpf",
    cap_search: bool = True,
    pool: str = "pooled",
    map_fraction: float = 2.0 / 3.0,
    plan_cache: Optional[PlanCache] = None,
) -> Callable[[Workflow, int], ProgressPlan]:
    """A standalone planner for :class:`~repro.cluster.simulation.ClusterSimulation`.

    Returns a ``(workflow, total_slots) -> ProgressPlan`` callable that does
    exactly what :meth:`WohaClient.generate_plan` does.

    Args:
        pool: ``"pooled"`` runs the paper's Algorithm 1 (one slot pool);
            ``"split"`` runs the split-pool ablation, modelling map and
            reduce slots separately in the cluster's ``map_fraction`` mix.
        plan_cache: optional :class:`~repro.core.plancache.PlanCache`
            shared across the planner's invocations (and, if desired,
            across planners); recurrent workflow instances then plan once.
    """
    chosen = _resolve_prioritizer(prioritizer)
    if pool not in ("pooled", "split"):
        raise ValueError(f"unknown pool mode {pool!r}; pick 'pooled' or 'split'")
    mode = plan_cache_mode(pool, cap_search, map_fraction)

    def planner(workflow: Workflow, total_slots: int) -> ProgressPlan:
        job_order = chosen(workflow)
        if plan_cache is not None:
            _result, plan = plan_cache.get_or_build(
                workflow,
                job_order,
                total_slots,
                mode=mode,
                build=lambda: _plan_entry(
                    workflow, job_order, total_slots, cap_search, pool, map_fraction
                ),
            )
            return plan
        return _plan_entry(workflow, job_order, total_slots, cap_search, pool, map_fraction)[1]

    return planner
