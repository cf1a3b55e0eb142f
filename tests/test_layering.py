"""The simulator plane loads no data-plane library, nor numpy: it runs on
the standard library alone (DESIGN.md §5). The control plane loads no
simulator: ``repro.core`` declares the data-plane contract that
``engine.exec_sim`` implements (DESIGN.md §2.3).

Only ``synth_data``, ``oracle`` and ``spark_iqre`` may import pandas,
pyarrow, pyspark or duckdb at module level, and ``queries.tpch`` only
inside its Spark functions. The root ``conftest.py`` loads pyspark into
the test process, so each check runs its code in a fresh interpreter and
reads that interpreter's ``sys.modules``.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA_PLANE = ("numpy", "pandas", "pyarrow", "pyspark", "py4j", "duckdb")


def loaded(code: str, modules: tuple[str, ...] = DATA_PLANE) -> set[str]:
    """The ``modules`` (by default the data-plane libraries) in
    ``sys.modules`` after a fresh interpreter runs ``code`` against this
    checkout's ``src``."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    report = f"\nimport json, sys\nprint(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    out = subprocess.run(
        [sys.executable, "-c", code + report],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_simulator_plane_loads_no_data_plane_library():
    code = (
        "import repro.experiments\n"
        "from repro.engine.exec_sim import SimExecutor\n"
        "from repro.experiments import prediction\n"
        "from repro.queries.tpch import QUERIES\n"
        "for q in QUERIES.values():\n"
        "    SimExecutor(q.sim_query())\n"
        "prediction.run()\n"
    )
    assert loaded(code) == set()


def test_table1_starts_no_spark():
    code = "from repro.experiments import table1\ntable1.run(sf=0.001)\n"
    assert loaded(code) & {"pyspark", "py4j", "duckdb"} == set()


def test_detector_flags_each_library():
    assert {"pandas", "pyspark", "py4j", "duckdb"} <= loaded("import repro.oracle")


def test_control_plane_loads_no_simulator():
    assert loaded("import repro.core\n", ("repro.engine.exec_sim",)) == set()


@pytest.mark.parametrize("first, second", [
    ("repro.engine", "repro.core"),
    ("repro.core", "repro.engine"),
    ("repro.engine.exec_sim", "repro.core"),
])
def test_engine_and_core_import_in_either_order(first, second):
    # exec_sim imports repro.core, which imports engine modules: neither
    # exec_sim first nor core first may meet a partly initialised module
    code = f"import {first}\nimport {second}\nimport repro.engine.exec_sim, repro.core\n"
    assert loaded(code, ("repro.engine.exec_sim", "repro.core")) == {
        "repro.engine.exec_sim", "repro.core",
    }
