"""Tests for the query-stage-task runtime info tree (§5.1, Fig. 18)."""
import ast
from dataclasses import replace
from pathlib import Path

import pytest

import repro.core
import repro.experiments
from repro.core import RuntimeInfoCollector, consumed_between, rate_at
from repro.core.runtime_info import _recent_rate
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

    def test_samples_unchanged_by_later_ticks(self):
        # a snapshot's progress series is a view of the first n samples:
        # 50 more ticks append to the executor's series, not to the view
        ex = SimExecutor(join_query(partitioned=False))
        for _ in range(60):
            ex.step()
        info = RuntimeInfoCollector(ex).collect()
        before = {sid: (len(s.samples), tuple(s.samples)) for sid, s in info.stages.items()}
        n = len(ex.states[1].cum_consumed_samples)
        assert n >= 5 and all(k == n for k, _ in before.values())
        for _ in range(50):
            ex.step()
        assert len(ex.states[1].cum_consumed_samples) >= n + 4
        assert {sid: (len(s.samples), tuple(s.samples))
                for sid, s in info.stages.items()} == before
        assert info[1].samples[-1] == before[1][1][-1]
        with pytest.raises(IndexError):
            info[1].samples[n]

    def test_rates_on_view_match_a_copy(self):
        ex = SimExecutor(join_query(partitioned=False))
        for _ in range(300):
            ex.step()
        info = RuntimeInfoCollector(ex).collect()
        for _ in range(50):
            ex.step()
        for s in info.stages.values():
            copy = replace(s, samples=tuple(s.samples))
            assert type(s.samples) is not tuple
            for t in (0.0, 0.5, 1.0, 7.0, 12.3, 29.9, 30.0, 35.0):
                assert rate_at(s, t) == rate_at(copy, t)
                assert consumed_between(s, 2.0, t) == consumed_between(copy, 2.0, t)
            assert _recent_rate(s.samples, s.consumed_bytes, info.t) == _recent_rate(
                copy.samples, s.consumed_bytes, info.t)
            assert s.recent_rate_bytes_s == copy.recent_rate_bytes_s
            assert s.recent_rate_bytes_s == _recent_rate(copy.samples, s.consumed_bytes, info.t)

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
