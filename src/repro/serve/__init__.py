"""Multi-tenant planning service tier (DESIGN.md §15).

The paper pushes all planning work to the client (§III-B); this package
packages that client-side pipeline as a long-running asyncio service so
many tenants share one :class:`~repro.core.plancache.PlanCache` and one
batching planner:

* :mod:`repro.serve.batching` — the next-turn flush that fuses the
  cache misses parked in one event-loop iteration; misses sharing a
  workflow structure share a retained ``_SimProblem`` setup and its
  finished plans across flushes, and one probe memo within a flush.
* :mod:`repro.serve.service` — :class:`PlanningService`, the transport-
  independent core (plan / admit / stats / trace).
* :mod:`repro.serve.api` — :class:`PlanServer`, a minimal HTTP/1.1 layer
  over asyncio streams (stdlib only).

The service is measured with the server in its own process, by the
``serve-recurrent`` and ``serve-cold`` workloads of ``benchmarks/e2e``.
"""

from repro.serve.batching import BatchingPlanner
from repro.serve.service import PlanningService, ServiceConfig
from repro.serve.api import PlanServer

__all__ = ["BatchingPlanner", "PlanningService", "PlanServer", "ServiceConfig"]
