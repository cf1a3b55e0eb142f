"""Tests for tasks and stages (repro.engine.task / stage)."""
from dataclasses import replace

from repro.cluster import Cluster
from repro.core import RuntimeInfoCollector, consumed_between, rate_at
from repro.engine import plan as P
from repro.engine.exec_sim import SimExecutor
from repro.engine.scheduler import schedule_query
from repro.engine.stage import Stage
from repro.engine.task import Task
from repro.queries.tpch import q3_plan
from tests.test_exec_sim import linear_query


def _scan_fragment():
    return P.Fragment(stage_id=2, root=P.scan("lineitem"))


class TestTask:
    def test_task_id_naming(self):
        # §2: task ID = stage number + task sequence number (e.g. task3_2)
        t = Task(3, 2, "compute0")
        assert t.task_id == "task3_2"
        assert t.node_id == "compute0"

    def test_set_dop_spawns_and_closes_drivers(self):
        t = Task(2, 0, "compute0")
        assert t.set_dop(4) == 4
        assert t.dop == 4
        assert t.set_dop(2) == 2

    def test_remote_split_wiring(self):
        # a task's upstream tasks are the child stage's live tasks, which it
        # reads through its buffer id in that stage's output buffer
        exe = schedule_query(P.fragment_plan(q3_plan()), Cluster.presto_testbed(), stage_dop=2)
        t = exe.stages[1].tasks[0]
        assert [c.task_id for c in exe.stages[2].tasks] == ["task2_0", "task2_1"]
        assert t.seq in exe.out_buffers[2].buffer_ids
        exe.retire_task(exe.stages[2].tasks[0])
        assert [c.task_id for c in exe.stages[2].tasks] == ["task2_1"]
        assert t.seq in exe.out_buffers[2].buffer_ids


class TestStage:
    def test_dop_is_task_count(self):
        s = Stage(2, _scan_fragment())
        s.new_task("compute0")
        s.new_task("compute1")
        assert s.dop == 2
        assert [t.node_id for t in s.tasks] == ["compute0", "compute1"]

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
        assert sum(t.dop for t in s.tasks) == 6

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
