"""Static determinism lint + runtime invariant contracts (DESIGN.md §8-§9).

Three layers of one guarantee:

* :mod:`repro.analysis.rules` / :mod:`repro.analysis.engine` — an AST lint
  that statically rejects determinism hazards (rule ids ``DT101``-``DT107``)
  in the scheduler's decision paths.  CLI: ``repro lint``.
* :mod:`repro.analysis.callgraph` / :mod:`repro.analysis.interproc` /
  :mod:`repro.analysis.dataflow` — the whole-program passes
  (``DT201``-``DT202``, ``DT301``-``DT305``): nondeterminism taint along
  the call graph, dynamic-call holes, and the flow-sensitive dataflow
  rules (fork-shared state, pool picklability, exception atomicity, stale
  or unknown directives, simulated-time purity; DESIGN.md §13).  CLI:
  ``repro lint --interproc`` and ``repro callgraph``.  Hot-path cost —
  asymptotic and constant-factor — is not linted; the end-to-end
  benchmark's per-layer metrics and the Fig 13a bench guard it
  (DESIGN.md §9, §14).
* :mod:`repro.analysis.contracts` — runtime checkers asserting the DSL
  cross-link, skip-list level monotonicity, Algorithm 1 plan monotonicity
  and prerequisite-respecting dispatch, zero-cost when disabled.
"""

from repro.analysis.annotations import decision_path, entrypoint
from repro.analysis.contracts import (
    NULL_CONTRACTS,
    ContractChecker,
    ContractMonitor,
    ContractViolation,
    NullContractChecker,
)
from repro.analysis.engine import (
    LintError,
    LintReport,
    lint_paths,
    lint_source,
    load_baseline,
    module_key,
)
from repro.analysis.rules import DECISION_PATH_DIRS, RULES, Violation, scan_module

__all__ = [
    "RULES",
    "DECISION_PATH_DIRS",
    "Violation",
    "scan_module",
    "LintError",
    "LintReport",
    "decision_path",
    "entrypoint",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "module_key",
    "ContractViolation",
    "ContractChecker",
    "ContractMonitor",
    "NullContractChecker",
    "NULL_CONTRACTS",
]
