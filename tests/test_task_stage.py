"""Tests for tasks and stages (repro.engine.task / stage)."""
from dataclasses import replace

import pytest

from repro.core import RuntimeInfoCollector, consumed_between, rate_at
from repro.engine import plan as P
from repro.engine.exec_sim import SimExecutor
from repro.engine.splits import RemoteSplit
from repro.engine.stage import Stage
from repro.engine.task import Task
from tests.test_exec_sim import linear_query


def _scan_fragment(sid=2):
    return P.Fragment(stage_id=sid, root=P.scan("lineitem"))


class TestTask:
    def test_task_id_naming(self):
        # §2: task ID = stage number + task sequence number (e.g. task3_2)
        t = Task(3, 2, "compute0", _scan_fragment(3))
        assert t.task_id == "task3_2"
        assert "compute0" in t.url

    def test_set_dop_spawns_and_closes_drivers(self):
        t = Task(2, 0, "compute0", _scan_fragment())
        assert t.set_dop(4) == 4
        assert t.dop == 4
        assert t.set_dop(2) == 2

    def test_remote_split_wiring(self):
        t = Task(1, 0, "compute0", _scan_fragment(1))
        t.add_upstream(RemoteSplit("http://c1/task2_0", "task2_0"))
        t.add_upstream(RemoteSplit("http://c2/task2_1", "task2_1"))
        assert len(t.upstream_addresses()) == 2
        t.drop_upstream_task("task2_0")
        assert [s.task_id for s in t.upstream_addresses()] == ["task2_1"]

    def test_context_defaults(self):
        t = Task(2, 0, "compute0", _scan_fragment())
        assert not t.context.finished


class TestStage:
    def test_dop_is_task_count(self):
        s = Stage(2, _scan_fragment())
        s.new_task("compute0")
        s.new_task("compute1")
        assert s.dop == 2
        assert s.node_ids() == ["compute0", "compute1"]

    def test_task_seq_monotonic_across_removal(self):
        s = Stage(2, _scan_fragment())
        a = s.new_task("compute0")
        s.remove_task(a)
        b = s.new_task("compute1")
        assert b.seq == 1  # seq numbers never reused (buffer ids stay unique)

    def test_task_dop_uniform(self):
        s = Stage(2, _scan_fragment())
        s.new_task("compute0")
        s.new_task("compute1")
        s.set_task_dop(3)
        assert s.task_dop == 3
        assert s.total_drivers() == 6

    def test_task_by_id(self):
        s = Stage(2, _scan_fragment())
        t = s.new_task("compute0")
        assert s.task_by_id(t.task_id) is t
        with pytest.raises(KeyError):
            s.task_by_id("task9_9")

    def test_empty_stage(self):
        s = Stage(2, _scan_fragment())
        assert s.dop == 0 and s.task_dop == 0



class TestThroughputSeries:
    """A stage's progress series, ``(t, cumulative bytes)`` samples in a
    snapshot, read through ``rate_at`` and ``consumed_between``."""

    @staticmethod
    def _stage(*samples):
        s = RuntimeInfoCollector(SimExecutor(linear_query())).collect()[1]
        return replace(s, samples=samples)

    def test_record_and_stats(self):
        s = self._stage((1.0, 100.0), (2.0, 400.0))
        assert [rate_at(s, t) for t, _ in s.samples] == [100.0, 300.0]

    def test_at_returns_latest_sample(self):
        s = self._stage((1.0, 100.0), (5.0, 2100.0))
        assert rate_at(s, 0.5) == 0.0
        assert rate_at(s, 1.0) == 100.0  # the first interval starts at (0, 0)
        assert rate_at(s, 4.9) == 100.0
        assert rate_at(s, 100.0) == 500.0

    def test_consumed_between(self):
        s = self._stage((1.0, 100.0), (5.0, 2100.0))
        assert consumed_between(s, 0.5, 5.0) == 0.0  # no sample that early
        assert consumed_between(s, 1.0, 4.9) == 0.0
        assert consumed_between(s, 1.0, 5.0) == 2000.0
        assert consumed_between(s, 2.0, 100.0) == 2000.0

    def test_empty_series(self):
        s = self._stage()
        assert rate_at(s, 1.0) == 0.0 and consumed_between(s, 0.0, 1.0) == 0.0
