"""The DT301/DT303-DT305 dataflow pass: summaries, fixpoints, rules, staleness."""

import ast
from pathlib import Path

import pytest

from repro.analysis import entrypoint, lint_paths
from repro.analysis.annotations import ENTRYPOINT_REGISTRY
from repro.analysis.callgraph import build_call_graph
from repro.analysis.dataflow import (
    DATAFLOW_RULES,
    DIRECTIVE_KINDS,
    HOT_PATH_REGISTRY,
    analyze_dataflow,
    compute_summaries,
    directive_comments,
    stale_suppression_violations,
)

FIXTURES = Path(__file__).parent / "fixtures" / "dataflow"


def graph_of(modules):
    return build_call_graph(
        {key: (src, ast.parse(src)) for key, src in modules.items()}
    )


def analyze(modules):
    """Raw dataflow violations (DT301/303/305) for ``{key: source}``."""
    return analyze_dataflow(graph_of(modules))


# -- the seeded fixture corpus ------------------------------------------------


def test_corpus_is_clean_without_the_analyzer():
    report = lint_paths([FIXTURES])
    assert report.clean
    # The DT304 fixture's live suppression is the only intra-rule hit.
    assert [v.rule for v in report.suppressed] == ["DT102"]


def test_every_dataflow_rule_fires_on_the_corpus():
    report = lint_paths([FIXTURES], interproc=True)
    fired = {v.rule for v in report.violations}
    assert fired == set(DATAFLOW_RULES)


def test_corpus_findings_are_where_the_fixtures_say():
    report = lint_paths([FIXTURES], interproc=True)
    by_rule = {}
    for v in report.violations:
        by_rule.setdefault(v.rule, []).append(v)
    assert [v.path for v in by_rule["DT301"]] == ["df_fork_shared.py"]
    assert [v.path for v in by_rule["DT303"]] == ["df_atomicity.py"]
    assert [v.path for v in by_rule["DT304"]] == ["df_stale_allow.py"]
    assert [v.path for v in by_rule["DT305"]] == ["df_wallclock_taint.py"]
    (hit,) = by_rule["DT301"]
    assert "df_fork_shared.py::run_shard -> df_fork_shared.py::_record" in hit.message


def test_dataflow_report_is_deterministic():
    first = lint_paths([FIXTURES], interproc=True)
    second = lint_paths([FIXTURES], interproc=True)
    assert [v.render() for v in first.violations] == [v.render() for v in second.violations]


# -- summaries ----------------------------------------------------------------


def test_summary_records_global_rebind_and_mutator_writes():
    summaries = compute_summaries(graph_of({
        "m.py": (
            "TABLE = {}\n\n"
            "def reset():\n"
            "    global TABLE\n"
            "    TABLE = {}\n\n"
            "def put(k):\n"
            "    TABLE.update({k: 1})\n"
        ),
    }))
    assert [w.kind for w in summaries["m.py::reset"].global_writes] == ["rebind"]
    (write,) = summaries["m.py::put"].global_writes
    assert write.target == "m.py::TABLE"
    assert "update" in write.kind


def test_summary_resolves_imported_module_state():
    summaries = compute_summaries(graph_of({
        "registry.py": "TABLE = {}\n",
        "user.py": (
            "import registry\n\n"
            "def add(k):\n"
            "    registry.TABLE[k] = 1\n"
        ),
    }))
    (write,) = summaries["user.py::add"].global_writes
    assert write.target == "registry.py::TABLE"


def test_summary_records_class_level_writes_through_cls():
    summaries = compute_summaries(graph_of({
        "m.py": (
            "class Registry:\n"
            "    TABLE = {}\n\n"
            "    @classmethod\n"
            "    def reset(cls):\n"
            "        cls.TABLE = {}\n"
        ),
    }))
    (write,) = summaries["m.py::Registry.reset"].global_writes
    assert write.target == "m.py::Registry.TABLE"
    assert write.kind == "class-attr"


def test_local_shadowing_is_not_a_global_write():
    summaries = compute_summaries(graph_of({
        "m.py": (
            "TABLE = {}\n\n"
            "def pure(k):\n"
            "    TABLE = {}\n"
            "    TABLE[k] = 1\n"
            "    return TABLE\n"
        ),
    }))
    assert summaries["m.py::pure"].global_writes == []


def test_may_raise_propagates_up_the_call_chain():
    summaries = compute_summaries(graph_of({
        "m.py": (
            "def leaf(x):\n"
            "    if x < 0:\n"
            "        raise ValueError('neg')\n"
            "    return x\n\n"
            "def mid(x):\n    return leaf(x)\n\n"
            "def outer(x):\n    return mid(x)\n"
        ),
    }))
    assert "ValueError" in summaries["m.py::leaf"].raises
    assert "ValueError" in summaries["m.py::mid"].may_raise
    assert "ValueError" in summaries["m.py::outer"].may_raise
    assert summaries["m.py::outer"].raises == set()


def test_may_raise_does_not_cross_ambiguous_cha_edges():
    summaries = compute_summaries(graph_of({
        "m.py": (
            "class A:\n"
            "    def step(self, x):\n"
            "        raise ValueError('a')\n"
            "class B:\n"
            "    def step(self, x):\n"
            "        return x\n\n"
            "def run(obj, x):\n"
            "    return obj.step(x)\n"
        ),
    }))
    assert summaries["m.py::run"].may_raise == set()


def test_wallclock_return_reaches_fixpoint_through_helpers():
    summaries = compute_summaries(graph_of({
        "m.py": (
            "import time\n\n"
            "def wall():\n    return time.perf_counter()\n\n"
            "def relay():\n    t = wall()\n    return t\n"
        ),
    }))
    assert summaries["m.py::wall"].wallclock_return
    assert summaries["m.py::relay"].wallclock_return


# -- DT301 --------------------------------------------------------------------


def test_entrypoint_decorator_registers_and_validates_kind():
    @entrypoint("fork")
    def sample(x):
        return x

    assert sample(3) == 3
    assert sample.__repro_entrypoint__ == "fork"
    assert ENTRYPOINT_REGISTRY[f"{sample.__module__}.{sample.__qualname__}"] == "fork"
    with pytest.raises(ValueError):
        entrypoint("thread")


def test_dt301_decorator_entrypoint_and_chain():
    violations = analyze({
        "m.py": (
            "from repro.analysis.annotations import entrypoint\n\n"
            "SEEN = set()\n\n"
            "def _mark(key):\n"
            "    SEEN.add(key)\n\n"
            "@entrypoint('service')\n"
            "def serve(key):\n"
            "    _mark(key)\n"
            "    return key\n"
        ),
    })
    (hit,) = [v for v in violations if v.rule == "DT301"]
    assert hit.line == 6
    assert "service entrypoint serve" in hit.message
    assert "m.py::serve -> m.py::_mark" in hit.message


def test_dt301_ignores_functions_not_reachable_from_an_entrypoint():
    violations = analyze({
        "m.py": (
            "CACHE = {}\n\n"
            "def warm(key):\n"
            "    CACHE[key] = 1\n"
        ),
    })
    assert [v for v in violations if v.rule == "DT301"] == []


# -- DT303 --------------------------------------------------------------------

_PARSE = (
    "def _parse(token):\n"
    "    if not token:\n"
    "        raise ValueError('empty')\n"
    "    return token\n\n"
)


def test_dt303_flags_raiser_between_paired_mutations():
    violations = analyze({
        "repro/core/x.py": (
            _PARSE
            + "def ingest(state, token):\n"
            "    state.count += 1\n"
            "    value = _parse(token)\n"
            "    state.entries[token] = value\n"
        ),
    })
    (hit,) = [v for v in violations if v.rule == "DT303"]
    assert "may raise ValueError" in hit.message
    assert "`state`" in hit.message


def test_dt303_quiet_outside_decision_or_hot_paths():
    violations = analyze({
        "m.py": (
            _PARSE
            + "def ingest(state, token):\n"
            "    state.count += 1\n"
            "    value = _parse(token)\n"
            "    state.entries[token] = value\n"
        ),
    })
    assert [v for v in violations if v.rule == "DT303"] == []


@pytest.mark.parametrize(
    "key, qualname",
    [
        ("repro/events.py", "Simulator.schedule"),
        ("repro/metrics/collector.py", "MetricsCollector.on_task_launch"),
        ("repro/serve/batching.py", "BatchingPlanner.flush_now"),
    ],
)
def test_dt303_covers_registry_hot_functions_outside_decision_paths(
    tmp_path, key, qualname
):
    """A function named by the hot-path registry gets DT303 in a
    non-decision package with no marker comment; an unlisted sibling with
    the same body does not."""
    cls, method = qualname.split(".")
    assert qualname in HOT_PATH_REGISTRY[key]
    body = (
        "(self, state, token):\n"
        "        state.count += 1\n"
        "        value = _parse(token)\n"
        "        state.entries[token] = value\n"
    )
    module = tmp_path / key
    module.parent.mkdir(parents=True)
    module.write_text(
        _PARSE + f"class {cls}:\n    def {method}{body}\n    def unlisted{body}"
    )
    report = lint_paths([tmp_path], interproc=True)
    hits = [v for v in report.violations if v.rule == "DT303"]
    assert [(v.path, v.line) for v in hits] == [(key, _PARSE.count("\n") + 4)]


def test_dt303_try_wrapped_raiser_is_handled():
    violations = analyze({
        "repro/core/x.py": (
            _PARSE
            + "def ingest(state, token):\n"
            "    state.count += 1\n"
            "    try:\n"
            "        value = _parse(token)\n"
            "    except ValueError:\n"
            "        value = None\n"
            "    state.entries[token] = value\n"
        ),
    })
    assert [v for v in violations if v.rule == "DT303"] == []


def test_dt303_mutation_in_returning_branch_cannot_pair_forward():
    # The replanning shape: a bookkeeping write inside an early-return
    # branch never reaches the statements after the branch, so it must
    # not pair with a later mutation across the may-raise call.
    violations = analyze({
        "repro/core/x.py": (
            _PARSE
            + "def commit(state, token):\n"
            "    if not token:\n"
            "        state.count += 1\n"
            "        return None\n"
            "    value = _parse(token)\n"
            "    state.entries[token] = value\n"
            "    return value\n"
        ),
    })
    assert [v for v in violations if v.rule == "DT303"] == []


def test_dt303_flags_broad_handler_without_reraise():
    src = (
        "def risky(state):\n"
        "    try:\n"
        "        state.commit()\n"
        "    except Exception:\n"
        "        {body}\n"
    )
    swallowed = analyze({"repro/core/x.py": src.format(body="return None")})
    (hit,) = [v for v in swallowed if v.rule == "DT303"]
    assert "swallow ContractError" in hit.message
    reraising = analyze({"repro/core/x.py": src.format(body="raise")})
    assert [v for v in reraising if v.rule == "DT303"] == []


# -- DT304 --------------------------------------------------------------------


def test_directive_comments_come_from_real_comments_only():
    found = directive_comments(
        '"""Docstring mentioning # repro: allow[DT101] is invisible."""\n'
        "# a `# repro: calls[target]` directive used to live here\n"
        "x = 1  # repro: allow[DT102, DT103]\n"
        "# repro: decision-path\n"
        "# repro: randomness-ok\n"
        "def f(q):\n    return q\n"
    )
    assert found == [(3, "allow", "DT102, DT103")]


def test_stale_calls_budget_and_entrypoint_directives_flagged():
    graph = graph_of({
        "m.py": (
            "# repro: budget O(1)\n"
            "\n"
            "x = 1  # repro: calls[nowhere]\n"
            "# repro: entrypoint[fork]\n"
            "y = 2\n"
        ),
    })
    messages = [v.message for v in stale_suppression_violations(graph, {})]
    assert len(messages) == 3
    assert any(
        "repro: budget" in m and "unknown directive; it does nothing" in m
        for m in messages
    )
    assert any("calls[nowhere]" in m for m in messages)
    assert any("entrypoint[fork]" in m for m in messages)


def test_misspelled_directive_flagged_as_unknown():
    graph = graph_of({
        "m.py": (
            "# repro: entrypiont[fork]\n"
            "def work(x):\n    return x\n\n"
            "def plain(q):  # repro: decison-path\n    return q\n"
        ),
    })
    hits = stale_suppression_violations(graph, {})
    assert [(v.rule, v.line) for v in hits] == [("DT304", 1), ("DT304", 5)]
    assert "`repro: entrypiont` is an unknown directive" in hits[0].message
    assert "`repro: decison-path` is an unknown directive" in hits[1].message
    assert directive_comments("# repro: entrypiont[fork]\n") == [
        (1, "unknown", "entrypiont")
    ]


#: One well-formed comment per directive kind the analyzer reads.
KNOWN_DIRECTIVES = {
    "allow": "x = 1  # repro: allow[DT101]\n",
    "calls": "x = 1  # repro: calls[target]\n",
    "entrypoint": "# repro: entrypoint[fork]\n",
    "decision-path": "# repro: decision-path\n",
    "randomness-ok": "# repro: randomness-ok\n",
}


@pytest.mark.parametrize("kind", sorted(KNOWN_DIRECTIVES))
def test_known_directive_kinds_are_never_unknown(kind):
    assert set(KNOWN_DIRECTIVES) == set(DIRECTIVE_KINDS)
    found = directive_comments(KNOWN_DIRECTIVES[kind])
    assert all(k != "unknown" for _, k, _ in found)


@pytest.mark.parametrize(
    "directive", ["# repro: hot-path", "# repro: budget O(log n)"]
)
def test_retired_directives_fail_the_interproc_lint(tmp_path, directive):
    (tmp_path / "m.py").write_text(
        "import heapq\n\n"
        f"{directive}\n"
        "def pop(heap):\n"
        "    return heapq.heappop(heap)\n"
    )
    report = lint_paths([tmp_path], interproc=True)
    (hit,) = report.violations
    assert (hit.rule, hit.line) == ("DT304", 3)
    assert "unknown directive; it does nothing" in hit.message


def test_prose_naming_a_retired_directive_is_not_flagged():
    source = (
        '"""Once marked with # repro: hot-path."""\n'
        "# the old `# repro: budget O(1)` comments are gone\n"
        "# see repro: hot-path in the changelog\n"
        "def f(q):\n    return q\n"
    )
    assert directive_comments(source) == []
    assert stale_suppression_violations(graph_of({"m.py": source}), {}) == []


def test_used_directives_are_not_stale():
    graph = graph_of({
        "repro/core/x.py": (
            "def target(x):\n    return x\n\n"
            "def decide(fn, x):\n"
            "    return fn(x)  # repro: calls[target]\n"
        ),
    })
    assert stale_suppression_violations(graph, {}) == []


def test_unused_allow_reported_and_used_allow_spared(tmp_path):
    (tmp_path / "m.py").write_text(
        "import time\n\n"
        "def stamp():\n"
        "    return time.time()  # repro: allow[DT102]\n\n"
        "def plain(values):\n"
        "    return sorted(values)  # repro: allow[DT101]\n"
    )
    report = lint_paths([tmp_path], interproc=True)
    (hit,) = report.violations
    assert hit.rule == "DT304"
    assert hit.line == 7
    assert "allow[DT101]" in hit.message


@pytest.mark.parametrize("ids", ["DT999", "DT102, DT999"])
def test_allow_naming_a_rule_outside_the_catalog_is_stale(tmp_path, ids):
    """An allow left behind by a retired rule id is reported, alone or next
    to a live id on the same line."""
    (tmp_path / "m.py").write_text(
        "import time\n\n"
        "def stamp():\n"
        f"    return time.time()  # repro: allow[{ids}]\n"
    )
    report = lint_paths([tmp_path], interproc=True)
    stale = [v for v in report.violations if v.rule == "DT304"]
    assert [(v.line, "allow[DT999]" in v.message) for v in stale] == [(4, True)]


def test_allow_dt304_silences_the_staleness_report(tmp_path):
    (tmp_path / "m.py").write_text(
        "def plain(values):\n"
        "    return sorted(values)  # repro: allow[DT101, DT304]\n"
    )
    report = lint_paths([tmp_path], interproc=True)
    assert report.clean
    assert [v.rule for v in report.suppressed] == ["DT304"]


# -- DT305 --------------------------------------------------------------------


def test_dt305_taint_killed_by_clean_reassignment():
    violations = analyze({
        "m.py": (
            "import time\n\n"
            "def f(now):\n"
            "    t = time.time()\n"
            "    t = 0.0\n"
            "    return t + now\n"
        ),
    })
    assert [v for v in violations if v.rule == "DT305"] == []


def test_dt305_wall_vs_wall_arithmetic_is_fine():
    violations = analyze({
        "m.py": (
            "import time\n\n"
            "def bench():\n"
            "    start = time.perf_counter()\n"
            "    return time.perf_counter() - start\n"
        ),
    })
    assert [v for v in violations if v.rule == "DT305"] == []


def test_dt305_interprocedural_taint_through_helper_return():
    violations = analyze({
        "m.py": (
            "import time\n\n"
            "def wall():\n    return time.perf_counter()\n\n"
            "def f(now):\n"
            "    t = wall()\n"
            "    return t > now\n"
        ),
    })
    (hit,) = [v for v in violations if v.rule == "DT305"]
    assert "compared with" in hit.message
    assert "returns wall-clock time" in hit.message


def test_dt305_from_import_and_wrapper_calls_tracked():
    violations = analyze({
        "m.py": (
            "from time import monotonic\n\n"
            "def f(deadline):\n"
            "    return float(monotonic()) < deadline\n"
        ),
    })
    (hit,) = [v for v in violations if v.rule == "DT305"]
    assert "`deadline`" in hit.message
