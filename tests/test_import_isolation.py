"""Import layering: the planning service loads only the planner.

``repro``, ``repro.core``, ``repro.workloads``, ``repro.analysis``,
``repro.cluster`` and ``repro.experiments`` resolve their public names on
first use (:mod:`repro._lazy`), the client imports the JobTracker only for
annotations, and ``repro.cli`` imports each command's modules when that
command runs.  So a fresh interpreter that imports the serving path never
loads numpy, the simulator, the schedulers, the experiment runner or the
lint engine (DESIGN.md §3).
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the planning path must not load.
HEAVY = ("numpy", "repro.cluster", "repro.schedulers", "repro.experiments",
         "repro.analysis.engine")

LAZY_PACKAGES = ("repro", "repro.core", "repro.workloads", "repro.analysis",
                 "repro.cluster", "repro.experiments")


def _loaded_in_fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter; return the HEAVY modules it loaded."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "code",
    [
        "import repro.serve.api",
        "import repro.core.client",
        # What ``python -m repro serve`` runs before it binds.
        "from repro import cli\ncli.build_parser().parse_args(['serve'])\nimport repro.serve",
    ],
    ids=["serve.api", "core.client", "cli-serve"],
)
def test_planning_path_loads_no_heavy_module(code):
    assert _loaded_in_fresh_interpreter(code) == []


def _export_table(package: str):
    """The name -> module table ``package``'s ``__init__`` hands to
    ``lazy_exports``, read from its source."""
    source = inspect.getsource(importlib.import_module(package))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package} does not call lazy_exports")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_the_defining_modules_object(package):
    module = importlib.import_module(package)
    table = _export_table(package)
    assert [name for name in module.__all__ if name != "__version__"] == list(table)
    for name, defining in table.items():
        value = getattr(module, name)
        assert value is getattr(importlib.import_module(defining), name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == defining, name
    assert set(table) <= set(dir(module))


def test_star_import_binds_the_whole_surface():
    import repro

    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["make_planner"] is importlib.import_module("repro.core.client").make_planner


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_attribute_is_an_attribute_error_naming_it(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'no_such_name'"):
        module.no_such_name  # noqa: B018
