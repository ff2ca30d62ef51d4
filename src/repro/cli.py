"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``plan`` — the WOHA client's view: parse a workflow XML, run the cap
  search and Algorithm 1, print the plan (the ``hadoop dag`` analogue,
  minus the submission).
* ``simulate`` — run workflows (XML files and/or a JSON trace) on a
  simulated cluster under a chosen scheduler and print the evaluation
  metrics.
* ``trace`` — generate the Yahoo!-like workflow set to a JSON file for
  later replay.
* ``trace-decisions`` — run a scenario with decision tracing on and dump
  the scheduler's decision log as JSONL (optionally explaining one
  workflow's deadline miss from it).
* ``profile`` — cProfile one deterministic scenario
  (:mod:`repro.experiments.profiling`) and print the top-N hot functions
  with per-event costs; the workflow behind the per-event micro-kernel.
* ``sweep`` — run a sharded experiment grid
  (:mod:`repro.experiments.runner`): scenarios x schedulers x seeds,
  optionally fanned over worker processes, with per-cell and merged
  metrics printed and the deterministic grid payload written as JSON.
* ``serve`` — run the multi-tenant planning/admission HTTP service
  (:mod:`repro.serve`): submit workflows, fetch wire-format plans, check
  deadline admission, stream the decision trace.
* ``lint`` — run the determinism lint (:mod:`repro.analysis`) over source
  trees; exits 1 on violations or a stale baseline, 2 on usage errors.
  ``--interproc`` adds the whole-program taint and dataflow passes
  (DT201-DT202, DT301-DT305);
  ``--diff REF`` restricts reporting to files changed versus a git ref.
* ``callgraph`` — build the interprocedural call graph and export it as
  DOT or JSON for inspection.

Scenario subcommands accept ``--contracts`` to enable the runtime
invariant checks of :mod:`repro.analysis.contracts` during the run.

Each command imports its modules when it runs, so ``repro serve`` loads
the planning service alone: no numpy, simulator or lint engine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import abc
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Set

import repro

if TYPE_CHECKING:
    from repro.cluster.simulation import ClusterSimulation
    from repro.workflow.model import Workflow

__all__ = ["main", "build_parser"]


class _DeferredChoices(abc.Sequence):
    """Argparse ``choices`` loaded on first use (a membership check or
    help), so building the parser imports no command's modules and
    ``repro serve`` never loads the simulator to list names it does not
    take.  Options using it need a ``metavar``: argparse formats one from
    the choices when the option is added."""

    def __init__(self, load: Callable[[], Sequence[str]]) -> None:
        self._load = load

    def __getitem__(self, index):
        return self._load()[index]

    def __len__(self) -> int:
        return len(self._load())


def _scheduler_stacks() -> Sequence[str]:
    from repro.registry import STACK_NAMES

    return STACK_NAMES


def _scenario_names() -> Sequence[str]:
    from repro.experiments.scenarios import SCENARIOS

    return sorted(SCENARIOS)


_SCHEDULERS = _DeferredChoices(_scheduler_stacks)
_SCENARIOS = _DeferredChoices(_scenario_names)


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by every subcommand that runs a simulation."""
    parser.add_argument("inputs", nargs="*", help="workflow XML files")
    parser.add_argument("--trace", help="JSON workflow-set file (repro trace command output)")
    parser.add_argument("--scheduler", choices=_SCHEDULERS, default="woha-lpf", metavar="STACK",
                        help="scheduler stack: %(choices)s (default %(default)s)")
    parser.add_argument("--nodes", type=int, default=32)
    parser.add_argument("--map-slots", type=int, default=2, help="map slots per node")
    parser.add_argument("--reduce-slots", type=int, default=1, help="reduce slots per node")
    parser.add_argument("--heartbeat", type=float, default=0.0,
                        help="heartbeat interval in seconds; 0 = event-driven (default)")
    parser.add_argument("--pool", choices=("pooled", "split"), default="pooled")
    parser.add_argument("--contracts", action="store_true",
                        help="enable runtime invariant checks (repro.analysis.contracts)")


def _load_scenario(args: argparse.Namespace) -> List[Workflow]:
    """Collect the scenario's workflows from XML files and/or a JSON set."""
    from repro.workflow.xmlconfig import parse_workflow_xml
    from repro.workloads.io import load_workflows

    workflows: List[Workflow] = []
    for path in args.inputs:
        with open(path) as fh:
            workflows.append(parse_workflow_xml(fh.read()))
    if args.trace:
        workflows.extend(load_workflows(args.trace))
    return workflows


def _build_simulation(args: argparse.Namespace, trace=False) -> ClusterSimulation:
    """Construct the ClusterSimulation a scenario subcommand describes."""
    from repro.cluster.config import ClusterConfig
    from repro.cluster.simulation import ClusterSimulation
    from repro.registry import make_stack

    heartbeat = args.heartbeat if args.heartbeat > 0 else float("inf")
    config = ClusterConfig(
        num_nodes=args.nodes,
        map_slots_per_node=args.map_slots,
        reduce_slots_per_node=args.reduce_slots,
        heartbeat_interval=heartbeat,
    )
    scheduler, mode, planner = make_stack(args.scheduler, args.pool)
    return ClusterSimulation(
        config, scheduler, submission=mode, planner=planner, trace=trace,
        contracts=getattr(args, "contracts", False),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WOHA reproduction: deadline-aware Map-Reduce workflow scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="generate a workflow's scheduling plan (client side)")
    plan.add_argument("workflow_xml", help="WOHA workflow configuration file")
    plan.add_argument("--slots", type=int, default=240, help="system slot count n (default 240)")
    plan.add_argument("--prioritizer", choices=("hlf", "lpf", "mpf"), default="lpf")
    plan.add_argument("--no-cap-search", action="store_true", help="plan at the full slot count")
    plan.add_argument(
        "--pool", choices=("pooled", "split"), default="pooled",
        help="pooled = the paper's Algorithm 1; split = map/reduce-aware ablation",
    )
    plan.add_argument("--entries", type=int, default=10, help="how many plan steps to print")

    simulate = sub.add_parser("simulate", help="run workflows on a simulated cluster")
    _add_scenario_args(simulate)

    decisions = sub.add_parser(
        "trace-decisions",
        help="replay a scenario with decision tracing and dump the log as JSONL",
    )
    _add_scenario_args(decisions)
    decisions.add_argument("--out", help="JSONL output path (default: stdout)")
    decisions.add_argument("--ring", type=int, default=0,
                           help="ring-buffer capacity; 0 = keep every event (default)")
    decisions.add_argument("--explain", metavar="WORKFLOW",
                           help="attribute WORKFLOW's deadline miss from the trace")
    decisions.add_argument("--counters", action="store_true",
                           help="print the per-scheduler decision counters")

    serve = sub.add_parser(
        "serve", help="run the multi-tenant planning/admission HTTP service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 lets the OS pick (printed on startup)")
    serve.add_argument("--slots", type=int, default=200,
                       help="system slot count n the plans are searched against")
    serve.add_argument("--prioritizer", choices=("hlf", "lpf", "mpf"), default="lpf")
    serve.add_argument("--no-cap-search", action="store_true",
                       help="plan at the full slot count (Fig 2 ablation)")
    serve.add_argument("--pool", choices=("pooled", "split"), default="pooled")
    serve.add_argument("--cache-capacity", type=int, default=1024,
                       help="shared plan-cache entries (LRU beyond this)")

    lint = sub.add_parser("lint", help="run the determinism lint over source trees")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: the installed repro package)")
    lint.add_argument("--baseline", help="known-violation budget file (module:RULE:count lines)")
    lint.add_argument("--list-rules", action="store_true", help="print the rule catalog and exit")
    lint.add_argument("--verbose", action="store_true",
                      help="also list suppressed and baselined violations")
    lint.add_argument("--interproc", action="store_true",
                      help="also run the whole-program taint/dynamic-call/dataflow "
                           "passes (DT201-DT202, DT301-DT305)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format; json emits stable sort-keyed records "
                           "for CI and --diff consumers (default: text)")
    lint.add_argument("--diff", metavar="REF",
                      help="report only files changed versus the given git ref "
                           "(the whole tree is still parsed; falls back to a "
                           "full report when git is unavailable)")

    callgraph = sub.add_parser(
        "callgraph", help="build the interprocedural call graph and export it"
    )
    callgraph.add_argument("paths", nargs="*",
                           help="files or directories to analyze "
                                "(default: the installed repro package)")
    callgraph.add_argument("--format", choices=("dot", "json"), default="dot",
                           help="output format (default: dot)")
    callgraph.add_argument("--out", help="output path (default: stdout)")

    trace = sub.add_parser("trace", help="generate the Yahoo!-like workflow set")
    trace.add_argument("--out", required=True, help="output JSON path")
    trace.add_argument("--workflows", type=int, default=61)
    trace.add_argument("--jobs", type=int, default=180)
    trace.add_argument("--single-job", type=int, default=15)
    trace.add_argument("--seed", type=int, default=2014)
    trace.add_argument("--task-scale", type=float, default=0.8)
    trace.add_argument("--drop-single-job", action="store_true",
                       help="remove single-job workflows, as the paper's Fig 8-10 do")

    profile = sub.add_parser(
        "profile",
        help="cProfile one deterministic scenario and print the hot functions",
    )
    profile.add_argument("--scenario", choices=_SCENARIOS, default="yahoo", metavar="SCENARIO",
                         help="scenario to profile: %(choices)s (default: yahoo)")
    profile.add_argument("--scheduler", choices=_SCHEDULERS, metavar="STACK",
                         help="scheduler stack: %(choices)s (default woha-lpf; "
                              "not with --scenario serve)")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--scale", type=float, default=0.25,
                         help="workload scale factor (1.0 = the bench-tier size)")
    profile.add_argument("--nodes", type=int, default=8,
                         help="TaskTrackers (default 8); with --scenario serve, "
                              "the tenant count")
    profile.add_argument("--heartbeat", type=float,
                         help="heartbeat interval in seconds; 0 = event-driven "
                              "(default 3; not with --scenario serve)")
    profile.add_argument("--top", type=int, default=15,
                         help="how many functions to print (default 15)")
    profile.add_argument("--sort", choices=("cumulative", "tottime"), default="cumulative")

    sweep = sub.add_parser("sweep", help="run a sharded experiment grid")
    sweep.add_argument("--scenario", action="append", choices=_SCENARIOS, metavar="SCENARIO",
                       help="scenario(s) to include: %(choices)s; repeatable (default: all)")
    sweep.add_argument("--scheduler", dest="schedulers", action="append",
                       choices=_SCHEDULERS, metavar="STACK",
                       help="scheduler(s) to include: %(choices)s; repeatable "
                            "(default: fifo and woha-lpf)")
    sweep.add_argument("--seeds", type=int, default=1,
                       help="replications per (scenario, scheduler): grid seeds 0..N-1")
    sweep.add_argument("--nodes", type=int, default=8, help="TaskTrackers per cell")
    sweep.add_argument("--scale", type=float, default=0.25,
                       help="workload scale factor (1.0 = the bench-tier size)")
    sweep.add_argument("--workers", type=int, default=0,
                       help="worker processes; 0 = run inline (default)")
    sweep.add_argument("--json", dest="json_out",
                       help="write the deterministic grid payload to this path")

    return parser


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.client import make_planner
    from repro.metrics.report import format_table
    from repro.workflow.xmlconfig import parse_workflow_xml

    with open(args.workflow_xml) as fh:
        workflow = parse_workflow_xml(fh.read())
    planner = make_planner(args.prioritizer, cap_search=not args.no_cap_search, pool=args.pool)
    plan = planner(workflow, args.slots)
    print(f"workflow      : {workflow.name} ({len(workflow)} jobs, {workflow.total_tasks} tasks)")
    deadline = workflow.relative_deadline
    print(f"deadline      : {'best effort' if deadline is None else f'{deadline:g} s relative'}")
    print(f"resource cap  : {plan.resource_cap} of {args.slots} slots ({args.pool})")
    print(f"sim makespan  : {plan.makespan:g} s (feasible: {plan.feasible})")
    print(f"plan size     : {plan.size_bytes} bytes, {len(plan)} steps")
    print(f"job order     : {' > '.join(plan.job_order)}")
    shown = plan.entries[: args.entries]
    print(format_table(
        ["ttd (s)", "tasks required"],
        [[e.ttd, e.cum_req] for e in shown],
        title=f"first {len(shown)} progress requirements",
        float_fmt="{:.1f}",
    ))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.metrics.report import format_table

    workflows = _load_scenario(args)
    if not workflows:
        print("no workflows given (pass XML files and/or --trace)", file=sys.stderr)
        return 2
    sim = _build_simulation(args)
    sim.add_workflows(workflows)
    result = sim.run()
    rows = [
        [s.name, s.submit_time, s.completion_time, s.workspan,
         "-" if s.deadline is None else f"{s.deadline:g}",
         "yes" if s.met_deadline else f"late {s.tardiness:g}s"]
        for s in sorted(result.stats.values(), key=lambda s: s.submit_time)
    ]
    print(format_table(
        ["workflow", "submit", "finish", "workspan", "deadline", "met"],
        rows,
        title=f"{args.scheduler} on {sim.config.total_map_slots}m-{sim.config.total_reduce_slots}r",
        float_fmt="{:.1f}",
    ))
    print(
        f"\nmiss ratio {result.miss_ratio:.3f} | max tardiness {result.max_tardiness:.1f}s | "
        f"total tardiness {result.total_tardiness:.1f}s | utilization {result.utilization:.2f}"
    )
    if result.contracts is not None:
        print(f"contracts: {result.contracts.counters['assertions']} assertions evaluated")
    return 0


def _changed_module_keys(ref: str) -> Optional[Set[str]]:
    """Module keys of files changed versus ``ref``, or ``None`` when git
    is unavailable (caller falls back to a full-tree report)."""
    from repro.analysis.engine import module_key

    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", ref, "--", "*.py"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        print(f"lint: git diff {ref!r} failed ({proc.stderr.strip()}); "
              "reporting the full tree", file=sys.stderr)
        return None
    return {module_key(line) for line in proc.stdout.splitlines() if line.strip()}


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.engine import LintError, LintReport, lint_paths
    from repro.analysis.rules import RULES

    if args.list_rules:
        for rule_id, description in sorted(RULES.items()):
            print(f"{rule_id}  {description}")
        return 0
    paths = args.paths or [str(Path(repro.__file__).parent)]
    only_keys: Optional[Set[str]] = None
    if args.diff:
        only_keys = _changed_module_keys(args.diff)
        if only_keys is not None and not only_keys:
            message = f"lint: no Python files changed versus {args.diff}"
            if args.format == "json":
                print(message, file=sys.stderr)
                payload = LintReport().to_json_payload(verbose=args.verbose)
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                print(message)
            return 0
    try:
        report = lint_paths(
            paths, baseline_path=args.baseline,
            interproc=args.interproc, only_keys=only_keys,
        )
    except (LintError, OSError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = report.to_json_payload(verbose=args.verbose)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        output = report.render(verbose=args.verbose)
        if output:
            print(output)
    # A stale baseline also fails: entries must be deleted as code gets
    # fixed, so the budget only ever shrinks.
    return 0 if report.clean and not report.stale_baseline else 1


def _cmd_callgraph(args: argparse.Namespace) -> int:
    from repro.analysis.callgraph import build_call_graph_from_paths

    paths = args.paths or [str(Path(repro.__file__).parent)]
    try:
        graph = build_call_graph_from_paths(paths)
    except (SyntaxError, OSError) as exc:
        print(f"callgraph: {exc}", file=sys.stderr)
        return 2
    if args.format == "dot":
        rendered = graph.to_dot()
    else:
        rendered = json.dumps(graph.to_json(), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
        print(
            f"wrote {len(graph.functions)} functions / {len(set(graph.edges))} edges "
            f"to {args.out}", file=sys.stderr,
        )
    else:
        sys.stdout.write(rendered)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workloads.io import save_workflows
    from repro.workloads.yahoo import YahooTraceConfig, generate_yahoo_workflows

    config = YahooTraceConfig(
        num_workflows=args.workflows,
        total_jobs=args.jobs,
        num_single_job=args.single_job,
        seed=args.seed,
        task_scale=args.task_scale,
        drop_single_job=args.drop_single_job,
    )
    workflows = generate_yahoo_workflows(config)
    save_workflows(args.out, workflows)
    print(
        f"wrote {len(workflows)} workflows / {sum(len(w) for w in workflows)} jobs / "
        f"{sum(w.total_tasks for w in workflows)} tasks to {args.out}"
    )
    return 0


def _cmd_trace_decisions(args: argparse.Namespace) -> int:
    from repro.metrics.postmortem import explain_miss

    workflows = _load_scenario(args)
    if not workflows:
        print("no workflows given (pass XML files and/or --trace)", file=sys.stderr)
        return 2
    if args.ring < 0:
        print(f"--ring must be >= 0, got {args.ring}", file=sys.stderr)
        return 2
    capacity = args.ring if args.ring > 0 else True
    sim = _build_simulation(args, trace=capacity)
    sim.add_workflows(workflows)
    result = sim.run()
    tracer = result.tracer
    if args.out:
        with open(args.out, "w") as fh:
            written = tracer.to_jsonl(fh)
        print(f"wrote {written} events to {args.out}"
              + (f" ({tracer.dropped} dropped by the ring)" if tracer.dropped else ""),
              file=sys.stderr)
    else:
        sys.stdout.write(tracer.dumps_jsonl())
    if args.counters:
        for scheduler, counters in sorted(result.metrics.scheduler_counters.items()):
            print(f"\ncounters [{scheduler}]:", file=sys.stderr)
            for name, value in sorted(counters.items()):
                print(f"  {name:22s} {value:g}", file=sys.stderr)
    if args.explain:
        if args.explain not in result.stats:
            print(f"unknown workflow {args.explain!r}", file=sys.stderr)
            return 2
        print(file=sys.stderr)
        print(explain_miss(tracer, args.explain).summary(), file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments.profiling import profile_scenario

    if args.top <= 0:
        print(f"--top must be positive, got {args.top}", file=sys.stderr)
        return 2
    if args.scenario == "serve":
        # The serve scenario profiles the planning service, not a cluster.
        for flag, value in (("--scheduler", args.scheduler), ("--heartbeat", args.heartbeat)):
            if value is not None:
                print(f"profile: {flag} does not apply to --scenario serve", file=sys.stderr)
                return 2
    report = profile_scenario(
        args.scenario,
        scheduler=args.scheduler or "woha-lpf",
        seed=args.seed,
        scale=args.scale,
        nodes=args.nodes,
        heartbeat=3.0 if args.heartbeat is None else args.heartbeat,
        top=args.top,
        sort=args.sort,
    )
    print(report.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve import PlanServer, PlanningService, ServiceConfig

    try:
        config = ServiceConfig(
            total_slots=args.slots,
            prioritizer=args.prioritizer,
            cap_search=not args.no_cap_search,
            pool=args.pool,
            cache_capacity=args.cache_capacity,
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    service = PlanningService(config)
    server = PlanServer(service, host=args.host, port=args.port)

    async def run() -> None:
        # Explicit handlers rather than KeyboardInterrupt: a shell that
        # starts the server with ``&`` hands it SIGINT ignored, and a
        # supervisor stops it with SIGTERM.  Either signal closes the
        # listener and returns, so the process exits 0.
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stopping.set)
        await server.start()
        print(
            f"serving on http://{server.host}:{server.port} "
            f"({args.slots} slots, {args.prioritizer}/{args.pool})",
            flush=True,
        )
        await stopping.wait()
        await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        # A SIGINT that lands before the handlers are installed.
        pass
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.runner import ExperimentCell, run_grid
    from repro.metrics.report import format_table

    if args.seeds <= 0:
        print(f"--seeds must be positive, got {args.seeds}", file=sys.stderr)
        return 2
    if args.workers < 0:
        print(f"--workers must be >= 0, got {args.workers}", file=sys.stderr)
        return 2
    scenarios = args.scenario or list(_SCENARIOS)
    schedulers = args.schedulers or ["fifo", "woha-lpf"]
    cells = [
        ExperimentCell(scenario, scheduler, seed=seed, nodes=args.nodes, scale=args.scale)
        for scenario in scenarios
        for scheduler in schedulers
        for seed in range(args.seeds)
    ]
    grid = run_grid(cells, workers=args.workers)
    rows = [
        [
            cell.key,
            len(cell.stats),
            cell.metrics.tasks_launched,
            cell.makespan,
            f"{cell.metrics.utilization():.2f}",
        ]
        for cell in grid.cells
    ]
    print(format_table(
        ["cell", "workflows", "launched", "makespan", "util"],
        rows,
        title=f"{len(grid.cells)}-cell sweep "
              f"({'inline' if args.workers == 0 else f'{args.workers} workers'})",
        float_fmt="{:.1f}",
    ))
    merged = grid.merged
    print(
        f"\nmerged: {merged.tasks_launched} launched | {merged.tasks_completed} completed | "
        f"{merged.tasks_lost} lost | window {merged.window:.1f}s | "
        f"utilization {merged.utilization():.2f}"
    )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(grid.to_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote grid payload to {args.json_out}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "trace-decisions":
        return _cmd_trace_decisions(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "callgraph":
        return _cmd_callgraph(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
