"""The prose docs name only code and files that exist.

Every backticked dotted ``repro.*`` name in DESIGN.md, README.md and
docs/paper-map.md must resolve by import plus ``getattr``, and every
backticked path under a top-level directory of the repo (or of the
``repro`` package) must exist; a module path such as
``benchmarks/_reference_plangen`` may omit ``.py``.  A rename or a deletion
that leaves a doc pointing at the old name fails here.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md", "docs/paper-map.md")
SPAN = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"repro(?:\.\w+)+")


def resolves(dotted: str) -> bool:
    """Import the longest importable prefix, then ``getattr`` the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        break
    try:
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
    except AttributeError:
        return False
    return True


def path_exists(span: str):
    """Whether a repo path exists; ``None`` when the span is not one."""
    path = span.split("::")[0].rstrip("/")
    if not path or path.startswith("/") or " " in path or "{" in path:
        return None
    for base in (ROOT, ROOT / "src" / "repro"):
        if (base / path.split("/")[0]).exists():
            return (base / path).exists() or (base / f"{path}.py").exists()
    return None


def references(doc: str):
    for lineno, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
        for span in SPAN.findall(line):
            yield lineno, span


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_repro_names_resolve(doc):
    stale = [f"{doc}:{n}: {span}" for n, span in references(doc)
             if DOTTED.fullmatch(span) and not resolves(span)]
    assert not stale, stale


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_repo_paths_exist(doc):
    stale = [f"{doc}:{n}: {span}" for n, span in references(doc)
             if "/" in span and path_exists(span) is False]
    assert not stale, stale
