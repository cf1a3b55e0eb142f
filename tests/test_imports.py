"""Every module under ``repro`` imports cleanly, and every ``__all__`` name
exists — a leftover import of a deleted module or name fails here."""
import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def test_walk_finds_every_layer():
    for pkg in ("repro.cluster", "repro.core", "repro.engine", "repro.queries",
                "repro.spark_iqre", "repro.experiments"):
        assert pkg in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    mod = importlib.import_module(name)
    for export in getattr(mod, "__all__", ()):
        assert hasattr(mod, export), f"{name}.__all__ lists missing {export}"
