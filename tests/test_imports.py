"""Every module under ``repro`` imports cleanly, and every ``__all__`` name
exists — a leftover import of a deleted module or name fails here. The
same holds for every ``jobs/*.py`` script."""
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
