"""Command line: ``run`` (one workload, or all in child processes) and ``compare``.

``run --workload NAME`` runs one workload in this process and prints, as
its last line, ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (untraced) or the per-layer metrics (``--trace``).  The
detailed result goes to ``<out>/<NAME>.json`` or ``<out>/<NAME>.trace.json``.

``run`` without ``--workload`` runs every workload, untraced and traced
(or the one mode ``--trace 0|1`` names), each in a fresh child process,
and combines the results into ``<out>/seed<S>.json``.  A first argument
that is not a subcommand means ``run``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.e2e import DEFAULT_OUT, ROOT, SRC, load_spec

#: In the order ``run`` without ``--workload`` runs them.
WORKLOAD_NAMES = ("sim-yahoo", "sim-periodic", "serve-recurrent", "serve-cold")
_CHILD_TIMEOUT_S = 600


def _module(name: str):
    if name.startswith("sim-"):
        from benchmarks.e2e import sim
        return sim
    from benchmarks.e2e import serve
    return serve


def _result_path(out: Path, name: str, trace: bool) -> Path:
    return out / f"{name}{'.trace' if trace else ''}.json"


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 out: Path) -> Dict[str, Any]:
    """Run one workload here; write and return its detailed result."""
    if not (SRC / "repro").is_dir():
        # Measure the checkout's own source, never an installed copy.
        raise SystemExit(f"{SRC / 'repro'} not found: run from a checkout of the repository")
    spec = load_spec()
    module = _module(name)
    workload = module.WORKLOADS[name]
    if trace:
        detail = module.run_traced(workload, seed, quick)
    else:
        detail = module.run_untraced(workload, seed, seconds, quick)
    values = detail.pop("metrics")
    names = spec["per_layer"] if trace else spec["end_to_end"]
    # A layer the workload never enters reports 0; an end-to-end metric is
    # always measured.
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0) if trace else values[m["name"]],
                    "unit": m["unit"]}
        for m in names
    }
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail.pop("attempted"),
        "failed": detail.pop("failed"),
        "metrics": metrics,
        "workload": name,
        "seed": seed,
        "trace": trace,
        "quick": quick,
        **detail,
    }
    out.mkdir(parents=True, exist_ok=True)
    with open(_result_path(out, name, trace), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


def _print_result(result: Dict[str, Any]) -> None:
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        note = result.get("reasons", {}).get(name)
        print(f"{result['workload']}  {name} = {shown} {metric['unit']}"
              + (f"  ({note})" if note else ""))
    if result.get("samples"):
        counts = ", ".join(f"{k}={v}" for k, v in sorted(result["samples"].items()))
        print(f"{result['workload']}  samples: {counts}")
    for key, value in sorted(result.get("outputs", {}).items()):
        print(f"{result['workload']}  outputs.{key} = {value}")
    if result.get("absent"):
        print(f"{result['workload']}  absent entry points: {', '.join(result['absent'])}")
    for error in result.get("errors", []):
        print(f"{result['workload']}  FAILED: {error}", file=sys.stderr)


def _run_all(seed: int, seconds: float, modes: List[bool], quick: bool, out: Path) -> int:
    combined: Dict[str, Any] = {"seed": seed, "seconds": seconds, "quick": quick, "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in modes:
            command = [
                sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"), "run",
                "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace)), "--out", str(out),
            ] + (["--quick"] if quick else [])
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=_CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            with open(_result_path(out, name, trace)) as fh:
                result = json.load(fh)
            combined["workloads"].setdefault(name, {})["traced" if trace else "untraced"] = result
            if not result["correct"]:
                status = 1
    path = out / f"seed{seed}.json"
    with open(path, "w") as fh:
        json.dump(combined, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("run", "compare", "-h", "--help"):
        argv.insert(0, "run")
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", choices=WORKLOAD_NAMES)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                     help="measured time per untraced run (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, choices=(0, 1),
                     help="per-layer traced run (bare flag or 1); 0 forces untraced")
    run.add_argument("--quick", action="store_true",
                     help="smoke size: 2 simulation runs, 200 requests, one set-up")
    run.add_argument("--out", type=Path, default=DEFAULT_OUT)
    compare = commands.add_parser("compare", help="check two result sets agree within bounds")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    if args.command == "compare":
        from benchmarks.e2e.compare import main as compare_main
        return compare_main(str(args.a), str(args.b), spec)
    if args.workload is None:
        modes = [False, True] if args.trace is None else [bool(args.trace)]
        return _run_all(args.seed, args.seconds, modes, args.quick, args.out)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.quick, args.out)
    _print_result(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0
