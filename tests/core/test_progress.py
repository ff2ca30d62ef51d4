"""Unit tests for ProgressPlan / ProgressEntry (the F_i structure)."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.progress import ProgressEntry, ProgressPlan


def make_plan(pairs, job_order=("a", "b"), cap=4, makespan=None, total=None, feasible=True):
    entries = tuple(ProgressEntry(ttd=t, cum_req=r) for t, r in pairs)
    if makespan is None:
        makespan = pairs[0][0] if pairs else 0.0
    if total is None:
        total = pairs[-1][1] if pairs else 0
    return ProgressPlan(
        entries=entries,
        job_order=tuple(job_order),
        resource_cap=cap,
        makespan=makespan,
        total_tasks=total,
        feasible=feasible,
    )


class TestValidation:
    def test_entries_must_descend_in_ttd(self):
        with pytest.raises(ValueError, match="out of order"):
            make_plan([(10.0, 2), (10.0, 4)])

    def test_entries_must_ascend_in_req(self):
        with pytest.raises(ValueError, match="out of order"):
            make_plan([(10.0, 4), (5.0, 2)])

    def test_final_req_must_equal_total(self):
        with pytest.raises(ValueError, match="workflow has"):
            make_plan([(10.0, 2)], total=5)

    def test_empty_plan_allowed(self):
        plan = make_plan([], total=0)
        assert len(plan) == 0
        assert plan.requirement_at(5.0) == 0


class TestLookups:
    @pytest.fixture
    def plan(self):
        # fires: ttd 60 -> 4 tasks, ttd 30 -> 10, ttd 6 -> 15
        return make_plan([(60.0, 4), (30.0, 10), (6.0, 15)])

    def test_requirement_at_steps(self, plan):
        assert plan.requirement_at(100.0) == 0   # before first entry
        assert plan.requirement_at(60.0) == 4    # entry fires exactly at its ttd
        assert plan.requirement_at(45.0) == 4
        assert plan.requirement_at(30.0) == 10
        assert plan.requirement_at(6.0) == 15
        assert plan.requirement_at(0.0) == 15
        assert plan.requirement_at(-10.0) == 15  # past the deadline

    def test_first_index_after(self, plan):
        D = 100.0
        assert plan.first_index_after(D, now=0.0) == 0       # ttd=100, nothing fired
        assert plan.first_index_after(D, now=40.0) == 1      # ttd=60 fired
        assert plan.first_index_after(D, now=70.0) == 2
        assert plan.first_index_after(D, now=94.0) == 3
        assert plan.first_index_after(D, now=1000.0) == 3

    def test_change_time(self, plan):
        D = 100.0
        assert plan.change_time(D, 0) == 40.0
        assert plan.change_time(D, 2) == 94.0
        assert plan.change_time(D, 3) == float("inf")

    def test_requirement_before(self, plan):
        assert plan.requirement_before(0) == 0
        assert plan.requirement_before(1) == 4
        assert plan.requirement_before(3) == 15
        assert plan.requirement_before(99) == 15

    def test_change_intervals(self, plan):
        assert plan.change_intervals() == [30.0, 24.0]


class TestSerialization:
    def test_roundtrip(self):
        plan = make_plan([(60.0, 4), (30.0, 10), (6.0, 15)], job_order=("x", "y", "z"), cap=7)
        clone = ProgressPlan.from_bytes(plan.to_bytes())
        assert clone.entries == plan.entries
        assert clone.job_order == plan.job_order
        assert clone.resource_cap == plan.resource_cap
        assert clone.total_tasks == plan.total_tasks

    def test_size_grows_with_entries(self):
        small = make_plan([(10.0, 1)], total=1)
        big = make_plan([(float(t), 20 - t) for t in range(19, 0, -1)], total=19)
        assert big.size_bytes > small.size_bytes

    def test_size_is_kilobyte_scale_for_thousand_entries(self):
        entries = [(float(2000 - i), i + 1) for i in range(1000)]
        plan = make_plan(entries, total=1000)
        # The paper's Fig 13b: plans stay within a few KB even for
        # 1400-task workflows.  12 bytes/entry + header + job names.
        assert plan.size_bytes < 16 * 1024

    @given(st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random_sizes(self, n):
        entries = [(float(n - i), i + 1) for i in range(n)]
        plan = make_plan(entries, total=n)
        assert ProgressPlan.from_bytes(plan.to_bytes()).entries == plan.entries

    def test_roundtrip_preserves_infeasible_flag(self):
        """Regression: from_bytes used to drop ``feasible`` (it defaulted to
        True), silently promoting best-effort plans after one serialise."""
        plan = make_plan([(60.0, 4), (30.0, 10), (6.0, 15)], feasible=False)
        clone = ProgressPlan.from_bytes(plan.to_bytes())
        assert clone.feasible is False
        assert clone.resource_cap == plan.resource_cap

    def test_feasible_wire_format_is_unchanged(self):
        """The flag rides the cap field's high bit: feasible plans must
        serialise byte-identically to the original flagless layout."""
        import struct
        import zlib

        plan = make_plan([(60.0, 4), (30.0, 10), (6.0, 15)], job_order=("x", "y"), cap=7)
        legacy = [struct.pack("<IdII", plan.resource_cap, plan.makespan,
                              len(plan.entries), len(plan.job_order))]
        for entry in plan.entries:
            legacy.append(struct.pack("<dI", entry.ttd, entry.cum_req))
        for name in plan.job_order:
            encoded = name.encode("utf-8")
            legacy.append(struct.pack("<H", len(encoded)))
            legacy.append(encoded)
        assert plan.to_bytes() == zlib.compress(b"".join(legacy), level=6)

    def test_roundtrip_empty_infeasible_plan(self):
        plan = make_plan([], total=0, feasible=False)
        clone = ProgressPlan.from_bytes(plan.to_bytes())
        assert clone.feasible is False
        assert clone.entries == ()

    def test_roundtrip_unicode_job_names(self):
        plan = make_plan([(10.0, 3)], job_order=("étape-1", "作业②"), total=3)
        clone = ProgressPlan.from_bytes(plan.to_bytes())
        assert clone.job_order == ("étape-1", "作业②")

    def test_oversized_cap_rejected(self):
        plan = make_plan([(10.0, 3)], cap=0x8000_0000, total=3)
        with pytest.raises(ValueError, match="too large"):
            plan.to_bytes()

    @given(st.integers(1, 30), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_preserves_all_fields(self, n, feasible):
        entries = [(float(n - i), i + 1) for i in range(n)]
        plan = make_plan(entries, total=n, feasible=feasible, cap=n)
        clone = ProgressPlan.from_bytes(plan.to_bytes())
        assert clone == plan


class TestWireBytesMemo:
    def test_repeated_calls_return_the_same_object(self):
        plan = make_plan([(60.0, 4), (30.0, 10), (6.0, 15)])
        first = plan.to_bytes()
        assert plan.to_bytes() is first
        assert plan.size_bytes == len(first)

    def test_replace_does_not_carry_stale_bytes(self):
        plan = make_plan([(60.0, 4), (30.0, 10), (6.0, 15)])
        feasible_bytes = plan.to_bytes()
        demoted = dataclasses.replace(plan, feasible=False)
        assert demoted.to_bytes() != feasible_bytes
        assert ProgressPlan.from_bytes(demoted.to_bytes()).feasible is False
        assert ProgressPlan.from_bytes(plan.to_bytes()).feasible is True

    def test_memo_is_invisible_to_the_dataclass(self):
        plan = make_plan([(60.0, 4), (30.0, 10), (6.0, 15)], job_order=("x", "y"), cap=7)
        twin = make_plan([(60.0, 4), (30.0, 10), (6.0, 15)], job_order=("x", "y"), cap=7)
        names, text, digest = (
            [f.name for f in dataclasses.fields(plan)], repr(plan), hash(plan)
        )
        wire = plan.to_bytes()
        assert [f.name for f in dataclasses.fields(plan)] == names
        assert repr(plan) == text and hash(plan) == digest
        assert plan == twin and hash(twin) == digest
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan and repr(clone) == text and hash(clone) == digest
        assert clone.to_bytes() == wire

    def test_failed_serialisation_is_not_memoized(self):
        plan = make_plan([(10.0, 3)], cap=0x8000_0000, total=3)
        for _ in range(2):
            with pytest.raises(ValueError, match="too large"):
                plan.to_bytes()


@given(
    st.lists(
        st.tuples(st.floats(0.1, 1e5, allow_nan=False), st.integers(1, 5)),
        min_size=1,
        max_size=40,
        unique_by=lambda p: p[0],
    )
)
@settings(max_examples=80, deadline=None)
def test_requirement_at_matches_linear_scan(raw):
    """Property: the bisect lookup equals a brute-force scan."""
    raw = sorted(raw, key=lambda p: -p[0])
    cum = 0
    pairs = []
    for ttd, inc in raw:
        cum += inc
        pairs.append((ttd, cum))
    plan = make_plan(pairs, total=cum)
    probes = [p[0] for p in pairs] + [0.0, 1e9, pairs[len(pairs) // 2][0] + 1e-3]
    for q in probes:
        expected = max((r for t, r in pairs if t >= q), default=0)
        assert plan.requirement_at(q) == expected
