"""WOHA's contribution: progress-based deadline-aware workflow scheduling.

* :mod:`repro.core.progress` — the progress-requirement plan ``F_i``;
* :mod:`repro.core.plangen` — Algorithm 1 (client-side plan generation);
* :mod:`repro.core.capsearch` — the resource-cap binary search (§IV-A);
* :mod:`repro.core.plancache` — recurrence-aware plan cache (beyond the paper);
* :mod:`repro.core.priorities` — HLF / LPF / MPF intra-workflow orders;
* :mod:`repro.core.scheduler` — Algorithm 2 on the Double Skip List;
* :mod:`repro.core.client` — the WOHA client (validate → plan → submit).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ProgressEntry": "repro.core.progress",
    "ProgressPlan": "repro.core.progress",
    "generate_requirements": "repro.core.plangen",
    "simulate_makespan": "repro.core.plangen",
    "find_min_cap": "repro.core.capsearch",
    "CapSearchResult": "repro.core.capsearch",
    "PlanCache": "repro.core.plancache",
    "hlf_order": "repro.core.priorities",
    "lpf_order": "repro.core.priorities",
    "mpf_order": "repro.core.priorities",
    "PRIORITIZERS": "repro.core.priorities",
    "WohaScheduler": "repro.core.scheduler",
    "NaiveWohaScheduler": "repro.core.scheduler",
    "WohaClient": "repro.core.client",
    "make_planner": "repro.core.client",
})
