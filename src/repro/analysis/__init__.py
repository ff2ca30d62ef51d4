"""Static determinism lint + runtime invariant contracts (DESIGN.md §8-§9).

Three layers of one guarantee:

* :mod:`repro.analysis.rules` / :mod:`repro.analysis.engine` — an AST lint
  that statically rejects determinism hazards (rule ids ``DT101``-``DT104``
  and ``DT107``) in the scheduler's decision paths.  CLI: ``repro lint``.
* :mod:`repro.analysis.callgraph` / :mod:`repro.analysis.interproc` /
  :mod:`repro.analysis.dataflow` — the whole-program passes
  (``DT201``-``DT202``, ``DT301`` and ``DT303``-``DT305``): nondeterminism
  taint along the call graph, dynamic-call holes, and the flow-sensitive
  dataflow rules (fork-shared state, exception atomicity, stale or
  unknown directives, simulated-time purity; DESIGN.md §13).  CLI:
  ``repro lint --interproc`` and ``repro callgraph``.  Hot-path cost —
  asymptotic and constant-factor — is not linted; the end-to-end
  benchmark's per-layer metrics and the Fig 13a bench guard it
  (DESIGN.md §9, §14).
* :mod:`repro.analysis.contracts` — runtime checkers asserting the DSL
  cross-link, skip-list level monotonicity, Algorithm 1 plan monotonicity
  and prerequisite-respecting dispatch, zero-cost when disabled.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "RULES": "repro.analysis.rules",
    "DECISION_PATH_DIRS": "repro.analysis.rules",
    "Violation": "repro.analysis.rules",
    "scan_module": "repro.analysis.rules",
    "LintError": "repro.analysis.engine",
    "LintReport": "repro.analysis.engine",
    "decision_path": "repro.analysis.annotations",
    "entrypoint": "repro.analysis.annotations",
    "lint_paths": "repro.analysis.engine",
    "lint_source": "repro.analysis.engine",
    "load_baseline": "repro.analysis.engine",
    "module_key": "repro.analysis.engine",
    "ContractViolation": "repro.analysis.contracts",
    "ContractChecker": "repro.analysis.contracts",
    "ContractMonitor": "repro.analysis.contracts",
    "NullContractChecker": "repro.analysis.contracts",
    "NULL_CONTRACTS": "repro.analysis.contracts",
})
