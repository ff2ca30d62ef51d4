"""The progress-requirement plan ``F_i`` (paper §IV).

A plan is a step function over *time-to-deadline* (ttd): ``F_i(ttd)`` is the
number of tasks that must already have been scheduled when ``ttd`` seconds
remain before the workflow's deadline.  Algorithm 1 emits one entry per
scheduling batch of its client-side simulation; entries are stored here in
firing order — **descending ttd, ascending cumulative requirement** — which
is exactly the index order Algorithm 2 walks (``F_h[W_h.i]``).

The plan also carries the intra-workflow job priority order the Workflow
Scheduler uses to pick a job once the workflow is chosen, and enough
provenance (cap, simulated makespan) for the benches and ablations.
"""

from __future__ import annotations

import bisect
import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ProgressEntry", "ProgressPlan"]


@dataclass(frozen=True)
class ProgressEntry:
    """One step of ``F_i``: by ``ttd`` before the deadline, ``cum_req``
    tasks must have been scheduled."""

    ttd: float
    cum_req: int


@dataclass(frozen=True)
class ProgressPlan:
    """The scheduling plan a WOHA client ships to the master.

    Attributes:
        entries: steps in firing order (ttd strictly descending, cum_req
            strictly ascending).  The final entry's ``cum_req`` equals
            ``total_tasks``.
        job_order: wjob names, highest intra-workflow priority first.
        resource_cap: the slot cap ``n`` the plan was generated with.
        makespan: the client simulation's completion time under that cap.
        total_tasks: map+reduce task count of the workflow.
        feasible: whether ``makespan`` fits within the relative deadline the
            cap search targeted (``True`` when no deadline was given).
    """

    entries: Tuple[ProgressEntry, ...]
    job_order: Tuple[str, ...]
    resource_cap: int
    makespan: float
    total_tasks: int
    feasible: bool = True
    # ttds ascending (reversed entry order) for bisect lookups.
    _ttds_asc: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for a, b in zip(self.entries, self.entries[1:]):
            if not (a.ttd > b.ttd and a.cum_req < b.cum_req):
                raise ValueError(
                    f"plan entries out of order: ({a.ttd}, {a.cum_req}) then ({b.ttd}, {b.cum_req})"
                )
        if self.entries and self.entries[-1].cum_req != self.total_tasks:
            raise ValueError(
                f"plan requires {self.entries[-1].cum_req} tasks but workflow has {self.total_tasks}"
            )
        object.__setattr__(self, "_ttds_asc", tuple(e.ttd for e in reversed(self.entries)))

    def __len__(self) -> int:
        return len(self.entries)

    def requirement_at(self, ttd: float) -> int:
        """``F_i(ttd)``: tasks required scheduled with ``ttd`` time left.

        Entries with ``entry.ttd >= ttd`` have fired (they lie at or before
        this moment); the requirement in force is the largest such
        ``cum_req``, or 0 before the first entry fires.
        """
        # _ttds_asc is ascending; count entries with ttd_entry >= ttd.
        idx = bisect.bisect_left(self._ttds_asc, ttd)
        fired = len(self._ttds_asc) - idx
        if fired == 0:
            return 0
        return self.entries[fired - 1].cum_req

    def first_index_after(self, deadline: float, now: float) -> int:
        """Index of the first entry that has *not* fired by ``now``.

        Entry ``i`` fires at absolute time ``deadline - entries[i].ttd``;
        this returns ``len(entries)`` when every entry has fired.  It is the
        loop on lines 8-10 of Algorithm 2, done with one bisect.
        """
        ttd_now = deadline - now
        idx = bisect.bisect_left(self._ttds_asc, ttd_now)
        # entries with ttd >= ttd_now have fired; they are the tail of
        # _ttds_asc, i.e. the head of `entries`.
        return len(self._ttds_asc) - idx

    def change_time(self, deadline: float, index: int) -> float:
        """Absolute firing time of entry ``index``; +inf past the last entry."""
        if index >= len(self.entries):
            return float("inf")
        return deadline - self.entries[index].ttd

    def requirement_before(self, index: int) -> int:
        """``F_h[index - 1].req`` with the paper's convention that the
        requirement before any entry fires is 0."""
        if index <= 0:
            return 0
        return self.entries[min(index, len(self.entries)) - 1].cum_req

    # -- wire size (Fig 13b) ----------------------------------------------------

    # High bit of the header's cap field flags an *infeasible* plan.  Caps
    # are slot counts (the paper's clusters top out in the hundreds), so the
    # bit is always free; stealing it keeps feasible plans byte-identical to
    # the original wire format and costs infeasible plans nothing.
    _INFEASIBLE_BIT = 0x8000_0000

    def to_bytes(self) -> bytes:
        """Serialise the plan as the client would ship it to the master.

        Layout: header (cap+flags, makespan, entry/job counts), then one
        ``<d I`` (float64 ttd, uint32 cum_req) record per entry, then the
        job order as length-prefixed UTF-8 names — all zlib-compressed.
        The cap field's high bit encodes ``feasible=False`` (the scheduler
        demotes infeasible plans, so the flag must survive the wire);
        feasible plans serialise byte-identically to the flagless format.
        Plan batches are highly regular (same-duration waves), so the
        records compress several-fold; Fig 13b plots
        ``len(plan.to_bytes())``.

        The bytes are computed on the first call and returned as the same
        object afterwards: the plan is frozen, so they cannot go stale.
        """
        return self._wire_bytes

    @cached_property
    def _wire_bytes(self) -> bytes:
        # Lives in the instance ``__dict__``, outside the dataclass fields,
        # so eq/hash/repr ignore it and ``dataclasses.replace`` starts fresh.
        if self.resource_cap >= self._INFEASIBLE_BIT:
            raise ValueError(f"resource cap {self.resource_cap} too large to serialise")
        cap_field = self.resource_cap | (0 if self.feasible else self._INFEASIBLE_BIT)
        entries = self.entries
        fields = [cap_field, self.makespan, len(entries), len(self.job_order)]
        append = fields.append
        for entry in entries:
            append(entry.ttd)
            append(entry.cum_req)
        # One pack for header and records: "<" has no padding, so this is
        # byte-for-byte the per-record concatenation.
        blob = [struct.pack("<IdII" + "dI" * len(entries), *fields)]
        for name in self.job_order:
            encoded = name.encode("utf-8")
            blob.append(struct.pack("<H", len(encoded)))
            blob.append(encoded)
        return zlib.compress(b"".join(blob), level=6)

    @property
    def size_bytes(self) -> int:
        return len(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProgressPlan":
        """Inverse of :meth:`to_bytes` (round-trip tested)."""
        data = zlib.decompress(data)
        cap_field, makespan, n_entries, n_jobs = struct.unpack_from("<IdII", data, 0)
        feasible = not (cap_field & cls._INFEASIBLE_BIT)
        cap = cap_field & ~cls._INFEASIBLE_BIT
        offset = struct.calcsize("<IdII")
        entries: List[ProgressEntry] = []
        for _ in range(n_entries):
            ttd, req = struct.unpack_from("<dI", data, offset)
            offset += struct.calcsize("<dI")
            entries.append(ProgressEntry(ttd=ttd, cum_req=req))
        jobs: List[str] = []
        for _ in range(n_jobs):
            (length,) = struct.unpack_from("<H", data, offset)
            offset += 2
            jobs.append(data[offset : offset + length].decode("utf-8"))
            offset += length
        total = entries[-1].cum_req if entries else 0
        return cls(
            entries=tuple(entries),
            job_order=tuple(jobs),
            resource_cap=cap,
            makespan=makespan,
            total_tasks=total,
            feasible=feasible,
        )

    def requirement_at_time(self, deadline: float, t: float) -> int:
        """``F_i`` expressed in absolute time: tasks required scheduled by
        instant ``t`` for a workflow with absolute ``deadline``."""
        return self.requirement_at(deadline - t)

    def change_intervals(self) -> List[float]:
        """Gaps between consecutive requirement-change times (Fig 3 data)."""
        times = [e.ttd for e in self.entries]
        return [a - b for a, b in zip(times, times[1:])]
