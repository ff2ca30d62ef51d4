"""The lint driver: file walking, suppressions, baseline accounting.

Three layers of noise control, in precedence order:

1. **Inline suppressions** — ``# repro: allow[DT101]`` (comma-separated ids
   or ``*``) on the flagged line marks a *justified* exception; the code
   next to the comment is the justification's audience.
2. **Baseline file** — one ``module-path:RULE:count`` entry per line grants
   a file a budget of known violations, so the gate can be introduced over
   a tree that is not yet clean without hiding *new* violations.  Entries
   that no longer match anything are reported as stale so the baseline
   only ever shrinks.
3. **Scope directives** — ``# repro: decision-path`` anywhere in a file
   opts it into the decision-path rule set regardless of location (used by
   rule fixtures and by modules that migrate between packages).

``lint_paths`` is the single entry point the CLI, the tier-1 gate test and
the perf bench all share.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.rules import DECISION_PATH_DIRS, RULES, Violation, scan_module

__all__ = [
    "LintError",
    "LintReport",
    "inline_allows",
    "is_decision_path_module",
    "lint_source",
    "lint_paths",
    "module_key",
    "load_baseline",
    "randomness_allowed_module",
]

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9*,\s]+)\]")
_DECISION_DIRECTIVE_RE = re.compile(r"#\s*repro:\s*decision-path\b")
_RANDOMNESS_OK_DIRECTIVE_RE = re.compile(r"#\s*repro:\s*randomness-ok\b")
_BASELINE_LINE_RE = re.compile(r"^(?P<path>[^:#]+):(?P<rule>[A-Z0-9]+):(?P<count>\d+)$")


class LintError(ValueError):
    """Raised on unreadable/unparsable inputs or a malformed baseline."""


@dataclass
class LintReport:
    """Outcome of one lint run over a set of files."""

    #: Violations neither suppressed inline nor covered by the baseline.
    violations: List[Violation] = field(default_factory=list)
    #: Violations silenced by an inline ``# repro: allow[...]`` comment.
    suppressed: List[Violation] = field(default_factory=list)
    #: Violations absorbed by the baseline budget.
    baselined: List[Violation] = field(default_factory=list)
    #: Baseline entries (path, rule, leftover count) that matched nothing.
    stale_baseline: List[Tuple[str, str, int]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts

    def render(self, verbose: bool = False) -> str:
        """Human-readable report (one violation per line, summary last)."""
        lines = [v.render() for v in self.violations]
        if verbose:
            lines.extend(f"{v.render()} [suppressed]" for v in self.suppressed)
            lines.extend(f"{v.render()} [baseline]" for v in self.baselined)
        for path, rule, count in self.stale_baseline:
            lines.append(f"{path}: stale baseline entry {rule} x{count} (no longer matches)")
        lines.append(
            f"{len(self.violations)} violation(s), {len(self.suppressed)} suppressed, "
            f"{len(self.baselined)} baselined, {self.files_checked} file(s) checked"
        )
        return "\n".join(lines)

    def to_json_payload(self, verbose: bool = False) -> Dict[str, object]:
        """Stable machine-readable view (``lint --format json``).

        Records are sorted by (module, line, rule, message) and carry only
        plain scalars, so ``json.dumps(..., sort_keys=True)`` of this
        payload is byte-stable for a given tree state.  ``verbose`` adds
        the suppressed/baselined record lists; their counts are always
        present.
        """
        def records(violations: List[Violation]) -> List[Dict[str, object]]:
            return [
                {
                    "module": v.path,
                    "rule": v.rule,
                    "line": v.line,
                    "col": v.col,
                    "message": v.message,
                }
                for v in sorted(
                    violations, key=lambda v: (v.path, v.line, v.rule, v.message)
                )
            ]

        payload: Dict[str, object] = {
            "clean": self.clean,
            "files_checked": self.files_checked,
            "violations": records(self.violations),
            "suppressed_count": len(self.suppressed),
            "baselined_count": len(self.baselined),
            "stale_baseline": [
                {"module": path, "rule": rule, "count": count}
                for path, rule, count in self.stale_baseline
            ],
        }
        if verbose:
            payload["suppressed"] = records(self.suppressed)
            payload["baselined"] = records(self.baselined)
        return payload


def module_key(path: "str | Path") -> str:
    """Stable identifier for a file: the path from the ``repro`` package
    root when below one, else the bare file name.

    Baseline entries and reports use this key, so the baseline is
    independent of where the tree is checked out — including the path
    separator: Windows backslashes are normalised to POSIX ``/`` before
    splitting, so ``src\\repro\\core\\x.py`` and ``src/repro/core/x.py``
    produce the same key.
    """
    parts = str(path).replace("\\", "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return parts[-1]


def is_decision_path_module(key: str, source: str) -> bool:
    """Does this module take scheduling decisions (by location or directive)?"""
    if _DECISION_DIRECTIVE_RE.search(source):
        return True
    parts = key.split("/")
    return len(parts) > 1 and parts[0] == "repro" and parts[1] in DECISION_PATH_DIRS


def randomness_allowed_module(key: str, source: str) -> bool:
    """Is this module sanctioned to draw randomness (noise/workloads)?"""
    if _RANDOMNESS_OK_DIRECTIVE_RE.search(source):
        return True
    rel = key[len("repro/"):] if key.startswith("repro/") else key
    return rel == "noise.py" or rel.startswith("workloads/")


# Internal aliases kept for callers predating the public names.
_is_decision_path = is_decision_path_module
_randomness_allowed = randomness_allowed_module


def inline_allows(source: str) -> Dict[int, set]:
    """Line number -> set of rule ids allowed there (``*`` = every rule)."""
    allows: Dict[int, set] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            rules = {token.strip() for token in match.group(1).split(",") if token.strip()}
            allows[lineno] = rules
    return allows


_inline_allows = inline_allows


def _filter_violations(
    raw: Sequence[Violation],
    key: str,
    allows: Dict[int, set],
    baseline: Optional[Dict[Tuple[str, str], int]],
    report: LintReport,
) -> None:
    """Route raw violations through inline allows then baseline budgets."""
    for violation in raw:
        allowed = allows.get(violation.line, ())
        if violation.rule in allowed or "*" in allowed:
            report.suppressed.append(violation)
            continue
        if baseline is not None:
            budget = baseline.get((key, violation.rule), 0)
            if budget > 0:
                baseline[(key, violation.rule)] = budget - 1
                report.baselined.append(violation)
                continue
        report.violations.append(violation)


def lint_source(
    source: str,
    path: "str | Path",
    baseline: Optional[Dict[Tuple[str, str], int]] = None,
    report: Optional[LintReport] = None,
    tree: Optional[ast.AST] = None,
) -> LintReport:
    """Lint one module's source text into (or onto) a report.

    ``baseline`` maps ``(module_key, rule)`` to a remaining-budget count;
    matched violations decrement it in place so one baseline dict can be
    shared across the files of a run.  ``tree`` lets callers that already
    parsed the module skip the second parse.
    """
    if report is None:
        report = LintReport()
    key = module_key(path)
    if tree is None:
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"{path}: cannot parse: {exc}") from exc
    raw = scan_module(
        tree,
        path=key,
        decision_path=_is_decision_path(key, source),
        randomness_allowed=_randomness_allowed(key, source),
    )
    _filter_violations(raw, key, inline_allows(source), baseline, report)
    report.files_checked += 1
    return report


def load_baseline(path: "str | Path") -> Dict[Tuple[str, str], int]:
    """Parse a baseline file into a ``(module_key, rule) -> count`` budget.

    Blank lines and ``#`` comments are ignored.  Unknown rule ids and
    malformed lines raise :class:`LintError` — a baseline that silently
    grants nothing is worse than a crash.
    """
    budget: Dict[Tuple[str, str], int] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _BASELINE_LINE_RE.match(stripped)
        if match is None:
            raise LintError(f"{path}:{lineno}: malformed baseline entry {stripped!r}")
        rule = match.group("rule")
        if rule not in RULES:
            raise LintError(f"{path}:{lineno}: unknown rule id {rule!r}")
        key = (match.group("path"), rule)
        budget[key] = budget.get(key, 0) + int(match.group("count"))
    return budget


def _iter_python_files(paths: Iterable["str | Path"]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise LintError(f"{path}: not a python file or directory")
    if not files:
        raise LintError("no python files found under the given paths")
    return files


def lint_paths(
    paths: Sequence["str | Path"],
    baseline_path: Optional["str | Path"] = None,
    *,
    interproc: bool = False,
    only_keys: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint every ``*.py`` under ``paths`` (files or directories).

    Files are visited in sorted order so reports are reproducible — the
    lint suite holds itself to its own determinism rules.

    ``interproc=True`` additionally builds the whole-program call graph
    and runs the DT201-DT202 pass (:mod:`repro.analysis.interproc`) and
    the DT301-DT305 dataflow pass (:mod:`repro.analysis.dataflow`); their
    violations go through the same inline-allow and baseline machinery,
    attributed to the module each one is located in.

    ``only_keys`` restricts *reporting* to the given module keys (the
    ``--diff`` fast path): every file is still parsed — the call graph
    needs the whole program — but intraprocedural scanning, violation
    output and ``files_checked`` cover only the selected modules, and
    stale-baseline accounting is skipped because a partial run cannot
    distinguish a stale entry from an unvisited one.
    """
    baseline = load_baseline(baseline_path) if baseline_path is not None else None
    report = LintReport()
    selected = None if only_keys is None else set(only_keys)
    parsed: Dict[str, Tuple[str, ast.AST]] = {}
    for file_path in _iter_python_files(paths):
        key = module_key(file_path)
        source = file_path.read_text()
        if interproc:
            try:
                parsed[key] = (source, ast.parse(source, filename=str(file_path)))
            except SyntaxError as exc:
                raise LintError(f"{file_path}: cannot parse: {exc}") from exc
        if selected is not None and key not in selected:
            continue
        if key in parsed:
            tree = parsed[key][1]
        else:
            try:
                tree = ast.parse(source, filename=str(file_path))
            except SyntaxError as exc:
                raise LintError(f"{file_path}: cannot parse: {exc}") from exc
        raw = scan_module(
            tree,
            path=key,
            decision_path=_is_decision_path(key, source),
            randomness_allowed=_randomness_allowed(key, source),
        )
        _filter_violations(raw, key, inline_allows(source), baseline, report)
        report.files_checked += 1
    if interproc:
        from repro.analysis.callgraph import build_call_graph
        from repro.analysis.dataflow import (
            analyze_dataflow,
            stale_suppression_violations,
        )
        from repro.analysis.interproc import analyze_graph, seed_allow_uses

        graph = build_call_graph(parsed)
        by_module: Dict[str, List[Violation]] = {}
        for violation in analyze_graph(graph) + analyze_dataflow(graph):
            by_module.setdefault(violation.path, []).append(violation)
        for key in sorted(by_module):
            if selected is not None and key not in selected:
                continue
            source = parsed[key][0]
            _filter_violations(
                by_module[key], key, inline_allows(source), baseline, report
            )
        # DT304 runs last: it needs the final suppression ledger (every
        # allow that earned its keep above) plus the allows consumed by
        # the taint-seed filter.  Skipped under --diff: a partial run
        # cannot tell a stale allow from one whose rule was not re-run.
        if selected is None:
            used: Dict[str, set] = {}
            for violation in report.suppressed:
                used.setdefault(violation.path, set()).add(
                    (violation.line, violation.rule)
                )
            for key, mod in graph.modules.items():
                used.setdefault(key, set()).update(seed_allow_uses(mod))
            stale: Dict[str, List[Violation]] = {}
            for violation in stale_suppression_violations(graph, used):
                stale.setdefault(violation.path, []).append(violation)
            for key in sorted(stale):
                source = parsed[key][0]
                _filter_violations(
                    stale[key], key, inline_allows(source), baseline, report
                )
    if baseline and selected is None:
        report.stale_baseline = sorted(
            (key, rule, count) for (key, rule), count in baseline.items() if count > 0
        )
    return report
