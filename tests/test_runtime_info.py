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
        assert s1.has_join and not s1.partitioned
        assert len(s1.tasks) == 2
        assert s1.tasks[0].task_id == "task1_0"

    def test_scan_stages_listed(self):
        ex = SimExecutor(join_query(partitioned=False))
        info = RuntimeInfoCollector(ex).collect()
        assert {s.stage_id for s in info.stages.values() if s.is_scan} == {2, 3}

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
        assert all(t.finished for s in info.stages.values() for t in s.tasks)

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
#: the executor's runtime queries: every ``stage_*``
EXECUTOR_QUERIES = {name for name in dir(SimExecutor) if name.startswith("stage_")}


def executor_reads(path: Path) -> list[tuple[int, str]]:
    """(line, access) for each direct read of executor state in ``path``:
    the ``states`` table or a call to one of ``EXECUTOR_QUERIES``."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "states":
            reads.append((node.lineno, ".states"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in EXECUTOR_QUERIES):
            reads.append((node.lineno, f".{node.func.attr}()"))
    return reads


class TestSingleReadPath:
    """The collector is the only read of executor state; everything else in
    ``repro.core`` and ``repro.experiments`` reads its snapshots."""

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORE.glob("*.py") if p.name != "runtime_info.py")
    )
    def test_module_reads_snapshots_only(self, name):
        assert executor_reads(CORE / name) == []

    @pytest.mark.parametrize("name", sorted(p.name for p in EXPERIMENTS.glob("*.py")))
    def test_experiment_reads_snapshots_only(self, name):
        assert executor_reads(EXPERIMENTS / name) == []

    def test_collector_reads_the_executor(self):
        reads = {access for _, access in executor_reads(CORE / "runtime_info.py")}
        assert {".states", ".stage_output_capacity_bytes_s()"} <= reads
