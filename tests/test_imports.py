"""Every module under ``repro`` imports cleanly, and every ``__all__`` name
exists — a leftover import of a deleted module or name fails here. The
same holds for every ``jobs/*.py`` script. Every name a module under
``src/`` imports is used in it; an import kept on purpose, such as a
package loading its submodules, says so with ``# noqa: F401`` on the
import's first line."""
import ast
import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)
JOBS = sorted((Path(__file__).resolve().parents[1] / "jobs").glob("*.py"))
SRC = Path(__file__).resolve().parents[1] / "src"


def test_walk_finds_every_layer():
    for pkg in ("repro.cluster", "repro.core", "repro.engine", "repro.queries",
                "repro.spark_iqre", "repro.experiments"):
        assert pkg in MODULES
    assert "correctness.py" in {p.name for p in JOBS}


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    mod = importlib.import_module(name)
    for export in getattr(mod, "__all__", ()):
        assert hasattr(mod, export), f"{name}.__all__ lists missing {export}"


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.stem)
def test_job_script_imports(path):
    # Any run_name but "__main__" runs the script's imports, not its main().
    ns = runpy.run_path(str(path), run_name="<not main>")
    assert callable(ns["main"])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name ``source`` imports and never reads.
    A name listed in ``__all__`` is read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*.py")))
def test_no_unused_import(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_detector_flags_each_form():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import a.b\n"
        "from dataclasses import dataclass, field\n"
        "from x import y as z\n"
        "from p import kept  # noqa: F401\n"
        "from q import exported\n"
        "__all__ = ['exported']\n"
        "@dataclass\n"
        "class C:\n"
        "    n: int = 0\n"
    )
    assert unused_imports(src) == [(2, "os"), (3, "osp"), (4, "a"), (5, "field"), (6, "z")]
