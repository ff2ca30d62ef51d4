"""``compare A.json B.json``: do two benchmark result sets agree?

Both files are ``seed<S>.json`` result sets written by ``run`` without
``--workload``.  For each workload and metric the checker prints A's and
B's value and their ratio.  It flags

* an end-to-end metric whose values differ by more than its
  ``BENCHMARK.json`` bound, in either direction;
* any difference at all in a deterministic value: the simulation outputs,
  the error rate, and the per-layer counters that count decisions.

The exit status is 1 when anything is flagged.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

#: Per-layer counters that are a pure function of the seed.
DETERMINISTIC_COUNTERS = (
    "events.count",
    "jobtracker.tick.calls",
    "jobtracker.round.calls",
    "scheduler.select.calls",
    "dsl.op.calls",
    "collector.hook.calls",
    "planner.calls",
    "capsearch.search.calls",
)

Row = Tuple[str, str, Any, Any, Optional[float], str]


def _value(run: Optional[Dict[str, Any]], section: str, name: str) -> Any:
    if run is None:
        return None
    entry = run.get(section, {}).get(name)
    return entry.get("value") if isinstance(entry, dict) else entry


def _ratio(a: Any, b: Any) -> Optional[float]:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and a:
        return b / a
    return None


def _error_rate(run: Optional[Dict[str, Any]]) -> Optional[float]:
    if run is None or not run.get("attempted"):
        return None
    return run["failed"] / run["attempted"]


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> List[Row]:
    """One row per workload x metric: (workload, metric, A, B, B/A, flag)."""
    rows: List[Row] = []
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        runs_a = a["workloads"].get(workload, {})
        runs_b = b["workloads"].get(workload, {})
        ua, ub = runs_a.get("untraced"), runs_b.get("untraced")
        ta, tb = runs_a.get("traced"), runs_b.get("traced")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = _value(ua, "metrics", name), _value(ub, "metrics", name)
            ratio = _ratio(va, vb)
            flag = ""
            if ratio is None:
                flag = "missing" if va != vb or va is None else ""
            elif abs(ratio - 1.0) > metric["bound"]:
                worse = ratio > 1.0 if metric["better"] == "lower" else ratio < 1.0
                flag = f"beyond bound {metric['bound']:g} ({'worse' if worse else 'better'})"
            rows.append((workload, name, va, vb, ratio, flag))
        deterministic = []
        for prefix, run_a, run_b in (("", ua, ub), ("traced.", ta, tb)):
            deterministic.append((f"{prefix}error_rate", _error_rate(run_a), _error_rate(run_b)))
            outputs = sorted(set((run_a or {}).get("outputs", {})) | set((run_b or {}).get("outputs", {})))
            deterministic += [
                (f"{prefix}outputs.{key}", _value(run_a, "outputs", key), _value(run_b, "outputs", key))
                for key in outputs
            ]
        for metric in spec["per_layer"]:
            name = metric["name"]
            va, vb = _value(ta, "metrics", name), _value(tb, "metrics", name)
            if name in DETERMINISTIC_COUNTERS:
                deterministic.append((name, va, vb))
            else:
                rows.append((workload, name, va, vb, _ratio(va, vb), ""))
        for name, va, vb in deterministic:
            rows.append((workload, name, va, vb, _ratio(va, vb), "" if va == vb else "differs"))
    return rows


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, str) and len(value) > 16:
        return value[:13] + "..."
    return "-" if value is None else str(value)


def main(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    rows = compare(a, b, spec)
    width = max(len(row[1]) for row in rows)
    current = None
    for workload, name, va, vb, ratio, flag in rows:
        if workload != current:
            print(f"\n{workload}")
            print(f"  {'metric':<{width}}  {'A':>14}  {'B':>14}  {'B/A':>8}")
            current = workload
        shown = "-" if ratio is None else f"{ratio:.4f}"
        print(f"  {name:<{width}}  {_fmt(va):>14}  {_fmt(vb):>14}  {shown:>8}  {flag}")
    flagged = [row for row in rows if row[5]]
    print(f"\n{len(flagged)} flagged of {len(rows)} rows")
    return 1 if flagged else 0
