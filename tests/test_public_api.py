"""Public API surface tests: imports, __all__ hygiene, docstring coverage."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    "repro",
    "repro._lazy",
    "repro.events",
    "repro.hdfs",
    "repro.oozie",
    "repro.noise",
    "repro.estimate",
    "repro.registry",
    "repro.trace",
    "repro.cli",
    "repro.workflow",
    "repro.workflow.model",
    "repro.workflow.dag",
    "repro.workflow.builder",
    "repro.workflow.xmlconfig",
    "repro.cluster",
    "repro.cluster.config",
    "repro.cluster.tasks",
    "repro.cluster.job",
    "repro.cluster.tasktracker",
    "repro.cluster.jobtracker",
    "repro.cluster.simulation",
    "repro.cluster.failures",
    "repro.cluster.speculation",
    "repro.structures",
    "repro.structures.base",
    "repro.structures.skiplist",
    "repro.structures.dsl",
    "repro.structures.avl",
    "repro.core",
    "repro.core.progress",
    "repro.core.plangen",
    "repro.core.plancache",
    "repro.core.capsearch",
    "repro.core.priorities",
    "repro.core.scheduler",
    "repro.core.client",
    "repro.core.replanning",
    "repro.schedulers",
    "repro.schedulers.base",
    "repro.schedulers.fifo",
    "repro.schedulers.fair",
    "repro.schedulers.edf",
    "repro.workloads",
    "repro.workloads.distributions",
    "repro.workloads.topologies",
    "repro.workloads.yahoo",
    "repro.workloads.deadlines",
    "repro.workloads.recurrence",
    "repro.workloads.io",
    "repro.metrics",
    "repro.metrics.collector",
    "repro.metrics.report",
    "repro.metrics.postmortem",
    "repro.metrics.svgplot",
    "repro.experiments",
    "repro.experiments.scenarios",
    "repro.experiments.runner",
    "repro.experiments.profiling",
    "repro.serve",
    "repro.serve.api",
    "repro.serve.batching",
    "repro.serve.service",
    "repro.analysis",
    "repro.analysis.annotations",
    "repro.analysis.callgraph",
    "repro.analysis.contracts",
    "repro.analysis.dataflow",
    "repro.analysis.engine",
    "repro.analysis.interproc",
    "repro.analysis.rules",
]


class TestImports:
    @pytest.mark.parametrize("module_name", MODULES)
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", MODULES)
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"

    def test_every_module_is_listed(self):
        """A new module joins these checks by being added to MODULES."""
        walked = {
            info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.name != "repro.__main__"  # importing it runs the CLI
        }
        assert sorted(walked - set(MODULES)) == []

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestAllExports:
    @pytest.mark.parametrize(
        "module_name",
        [m for m in MODULES if not m.endswith(("cli",))],
    )
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ names missing {name!r}"

    def test_top_level_all_is_importable_star_surface(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestDocstringCoverage:
    @pytest.mark.parametrize(
        "module_name",
        ["repro.core.plangen", "repro.core.scheduler", "repro.core.progress",
         "repro.structures.skiplist", "repro.structures.dsl", "repro.cluster.jobtracker",
         "repro.trace"],
    )
    def test_public_callables_documented(self, module_name):
        """Every public class and function in the core modules carries a
        docstring (the paper-facing API must be self-explanatory)."""
        module = importlib.import_module(module_name)
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
                if inspect.isclass(obj):
                    for meth_name, meth in vars(obj).items():
                        if meth_name.startswith("_") or not inspect.isfunction(meth):
                            continue
                        if meth.__doc__ and meth.__doc__.strip():
                            continue
                        # Interface overrides inherit their contract docs.
                        inherited = any(
                            getattr(getattr(base, meth_name, None), "__doc__", None)
                            for base in obj.__mro__[1:]
                        )
                        if not inherited:
                            undocumented.append(f"{name}.{meth_name}")
        assert not undocumented, f"{module_name}: missing docstrings on {undocumented}"
