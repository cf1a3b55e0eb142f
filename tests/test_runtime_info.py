"""Tests for the query-stage-task runtime info tree (§5.1, Fig. 18)."""
import ast
from pathlib import Path

import pytest

import repro.core
import repro.experiments
from repro.core import RuntimeInfoCollector
from repro.engine.exec_sim import SimExecutor
from tests.test_exec_sim import join_query, linear_query

GB = 1e9


class TestCollector:
    def test_snapshot_structure(self):
        ex = SimExecutor(join_query(partitioned=False), stage_dop=2)
        for _ in range(20):
            ex.step()
        info = RuntimeInfoCollector(ex).collect()
        assert sorted(info.stages) == [0, 1, 2, 3]
        s1 = info[1]
        assert s1.dop == 2
        assert ex.tree[1].has_join and not ex.tree[1].partitioned

    def test_scan_stages_listed(self):
        ex = SimExecutor(join_query(partitioned=False))
        info = RuntimeInfoCollector(ex).collect()
        assert {s.stage_id for s in info.stages.values() if ex.tree[s.stage_id].is_scan} == {2, 3}

    def test_progress_fraction(self):
        ex = SimExecutor(linear_query(scan_bytes=1 * GB))
        for _ in range(50):  # 5 s at 100 MB/s
            ex.step()
        info = RuntimeInfoCollector(ex).collect()
        assert info[1].progress == pytest.approx(0.5, abs=0.05)

    def test_finished_flags_after_run(self):
        ex = SimExecutor(linear_query())
        ex.run()
        info = RuntimeInfoCollector(ex).collect()
        assert info.done
        assert all(s.finished for s in info.stages.values())

    def test_snapshot_unchanged_by_later_steps(self):
        ex = SimExecutor(join_query(partitioned=False))
        c = RuntimeInfoCollector(ex)
        for _ in range(40):
            ex.step()
        info = c.collect()
        before = repr(info)
        assert info[1].samples and info[1].end_at is None
        ex.run()
        assert repr(info) == before
        later = c.collect()
        assert later.t > info.t and len(later[1].samples) > len(info[1].samples)
        assert later[1].end_at is not None

    def test_build_bytes_exposed(self):
        ex = SimExecutor(join_query(build_bytes=0.5 * GB, partitioned=True))
        info = RuntimeInfoCollector(ex).collect()
        assert info[1].build_bytes == pytest.approx(0.5 * GB, rel=0.01)

    def test_remaining_bytes_tracks_scan(self):
        ex = SimExecutor(linear_query(scan_bytes=1 * GB))
        for _ in range(30):
            ex.step()
        info = RuntimeInfoCollector(ex).collect()
        assert info[1].remaining_bytes == pytest.approx(0.7 * GB, rel=0.1)


CORE = Path(repro.core.__file__).parent
EXPERIMENTS = Path(repro.experiments.__file__).parent


def plane_reads(source: str) -> list[tuple[int, str]]:
    """(line, access) for each read of simulator internals in ``source``:
    an import of ``repro.engine.exec_sim``, or the executor's ``states``."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "states":
            reads.append((node.lineno, ".states"))
        elif isinstance(node, ast.Import):
            if "repro.engine.exec_sim" in {a.name for a in node.names}:
                reads.append((node.lineno, "import exec_sim"))
        elif isinstance(node, ast.ImportFrom):
            mods = {node.module} | {f"{node.module}.{a.name}" for a in node.names}
            if "repro.engine.exec_sim" in mods:
                reads.append((node.lineno, "import exec_sim"))
    return reads


class TestSingleReadPath:
    """``repro.core`` reads a data plane only through the ``DataPlane``
    contract, and ``repro.experiments`` reads collector snapshots, not the
    executor's ``states``."""

    @pytest.mark.parametrize("name", sorted(p.name for p in CORE.glob("*.py")))
    def test_module_reads_snapshots_only(self, name):
        assert plane_reads((CORE / name).read_text()) == []

    @pytest.mark.parametrize("name", sorted(p.name for p in EXPERIMENTS.glob("*.py")))
    def test_experiment_reads_snapshots_only(self, name):
        reads = plane_reads((EXPERIMENTS / name).read_text())
        assert [r for r in reads if r[1] == ".states"] == []

    def test_detector_flags_each_read(self):
        src = (
            "from repro.engine.exec_sim import SimExecutor\n"
            "from repro.engine import exec_sim, plan\n"
            "import repro.engine.exec_sim\n"
            "from repro.engine.plan import StageTree\n"
            "x = ex.states[1]\n"
        )
        assert plane_reads(src) == [
            (1, "import exec_sim"), (2, "import exec_sim"), (3, "import exec_sim"), (5, ".states"),
        ]
