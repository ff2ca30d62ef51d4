"""Call-graph builder mechanics: resolution kinds, annotations, exports."""

import ast

from repro.analysis.callgraph import build_call_graph, build_call_graph_from_paths


def graph_of(modules):
    """Build a graph from ``{module_key: source}``."""
    return build_call_graph({key: (src, ast.parse(src)) for key, src in modules.items()})


def edge_set(graph, kind=None):
    return {
        (e.caller, e.callee)
        for e in graph.edges
        if kind is None or e.kind == kind
    }


# -- resolution kinds ---------------------------------------------------------


def test_direct_and_cross_module_calls_resolve():
    graph = graph_of({
        "pkg/a.py": "def helper():\n    return 1\n\ndef top():\n    return helper()\n",
        "pkg/b.py": "from pkg.a import helper\n\ndef other():\n    return helper()\n",
    })
    assert ("pkg/a.py::top", "pkg/a.py::helper") in edge_set(graph)
    assert ("pkg/b.py::other", "pkg/a.py::helper") in edge_set(graph)
    assert not graph.dynamic_calls


def test_self_method_and_constructor_calls_resolve():
    graph = graph_of({
        "m.py": (
            "class Q:\n"
            "    def a(self):\n"
            "        return self.b()\n"
            "    def b(self):\n"
            "        return 0\n"
            "    @classmethod\n"
            "    def fresh(cls):\n"
            "        return cls()\n"
            "    def __init__(self):\n"
            "        pass\n"
        ),
    })
    edges = edge_set(graph)
    assert ("m.py::Q.a", "m.py::Q.b") in edges
    assert ("m.py::Q.fresh", "m.py::Q.__init__") in edges


def test_dispatch_table_subscript_call_resolves_to_registry_edges():
    graph = graph_of({
        "m.py": (
            "def f(x):\n    return x\n\n"
            "def g(x):\n    return -x\n\n"
            "TABLE = {'f': f, 'g': g}\n\n"
            "def dispatch(name, x):\n"
            "    return TABLE[name](x)\n"
        ),
    })
    registry = edge_set(graph, kind="registry")
    assert ("m.py::dispatch", "m.py::f") in registry
    assert ("m.py::dispatch", "m.py::g") in registry
    assert not graph.dynamic_calls


def test_cha_fallback_single_candidate_precise_many_ambiguous():
    graph = graph_of({
        "m.py": (
            "class A:\n"
            "    def only_here(self):\n        return 1\n"
            "    def shared(self):\n        return 1\n"
            "class B:\n"
            "    def shared(self):\n        return 2\n"
            "def use(x):\n"
            "    x.only_here()\n"
            "    x.shared()\n"
        ),
    })
    by_pair = {(e.caller, e.callee): e for e in graph.edges if e.kind == "cha"}
    precise = by_pair[("m.py::use", "m.py::A.only_here")]
    assert not precise.ambiguous
    assert by_pair[("m.py::use", "m.py::A.shared")].ambiguous
    assert by_pair[("m.py::use", "m.py::B.shared")].ambiguous


def test_parameter_call_becomes_dynamic():
    graph = graph_of({
        "m.py": "def apply(fn, x):\n    return fn(x)\n",
    })
    (dyn,) = graph.dynamic_calls
    assert dyn.function == "m.py::apply"
    assert not dyn.annotated


def test_nested_def_is_a_graph_node_with_dotted_name():
    graph = graph_of({
        "m.py": (
            "def outer():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner()\n"
        ),
    })
    assert "m.py::outer.inner" in graph.functions
    assert ("m.py::outer", "m.py::outer.inner") in edge_set(graph)


# -- comment annotations ------------------------------------------------------


def test_calls_annotation_adds_edges_and_marks_dynamic_resolved():
    graph = graph_of({
        "m.py": (
            "def target(x):\n    return x\n\n"
            "def use(fn, x):\n"
            "    return fn(x)  # repro: calls[target]\n"
        ),
    })
    assert ("m.py::use", "m.py::target") in edge_set(graph, kind="annotation")
    (dyn,) = graph.dynamic_calls
    assert dyn.annotated


def test_calls_annotation_with_no_resolving_target_stays_dynamic():
    graph = graph_of({
        "m.py": (
            "def use(fn, x):\n"
            "    return fn(x)  # repro: calls[no_such_function]\n"
        ),
    })
    (dyn,) = graph.dynamic_calls
    assert not dyn.annotated  # a typo must not silence DT202


def test_decorator_marks_recognised_syntactically():
    graph = graph_of({
        "m.py": (
            "from repro.analysis.annotations import decision_path\n\n"
            "@decision_path\n"
            "def a():\n    return 1\n\n"
            "def b():\n    return 2\n"
        ),
    })
    assert graph.functions["m.py::a"].decision_path
    assert not graph.functions["m.py::b"].decision_path


# -- queries and exports ------------------------------------------------------


def test_function_at_returns_innermost_span():
    graph = graph_of({
        "m.py": (
            "def outer():\n"          # line 1
            "    def inner():\n"      # line 2
            "        return 1\n"      # line 3
            "    return inner()\n"    # line 4
        ),
    })
    assert graph.function_at("m.py", 3).qualname == "m.py::outer.inner"
    assert graph.function_at("m.py", 4).qualname == "m.py::outer"
    assert graph.function_at("m.py", 99) is None


def test_json_and_dot_exports_are_deterministic():
    modules = {
        "pkg/a.py": "def helper():\n    return 1\n",
        "pkg/b.py": (
            "from repro.analysis.annotations import decision_path\n"
            "from pkg.a import helper\n\n"
            "@decision_path\n"
            "def top():\n    return helper()\n"
        ),
    }
    first, second = graph_of(modules), graph_of(modules)
    assert first.to_json() == second.to_json()
    assert first.to_dot() == second.to_dot()
    dump = first.to_json()
    assert set(dump) >= {"modules", "functions", "edges", "dynamic_calls"}
    dot = first.to_dot()
    assert dot.startswith("digraph callgraph {")
    assert '"pkg/b.py::top" -> "pkg/a.py::helper"' in dot
    assert '"pkg/b.py::top" [label="pkg/b.py::top", shape=box]' in dot


def test_build_from_paths_walks_directories(tmp_path):
    (tmp_path / "x.py").write_text("def f():\n    return g()\n\ndef g():\n    return 0\n")
    graph = build_call_graph_from_paths([str(tmp_path)])
    assert ("x.py::f", "x.py::g") in edge_set(graph)
