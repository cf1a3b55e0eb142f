"""Tests for tasks and stages (repro.engine.task / stage)."""
from dataclasses import replace

from repro.cluster import Cluster
from repro.core import RuntimeInfoCollector, consumed_between, rate_at
from repro.engine import plan as P
from repro.engine.exec_sim import SimExecutor
from repro.engine.scheduler import DynamicScheduler, schedule_query
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

    def test_set_drivers_spawns_and_closes_drivers(self):
        # §4.3: the task's node takes the spawned drivers and releases the
        # closed ones
        exe = schedule_query(P.fragment_plan(q3_plan()), Cluster.presto_testbed())
        t = exe.stages[2].tasks[0]
        node = exe.cluster.node(t.node_id)
        before = node.active_drivers
        exe.set_drivers(t, 4)
        assert (t.dop, node.active_drivers) == (4, before + 3)
        exe.set_drivers(t, 2)
        assert (t.dop, node.active_drivers) == (2, before + 1)

    def test_remote_split_wiring(self):
        # a task's upstream tasks are the child stage's live tasks: retiring
        # one shrinks the set, and the reading task stays as it is
        exe = schedule_query(P.fragment_plan(q3_plan()), Cluster.presto_testbed(), stage_dop=2)
        t = exe.stages[1].tasks[0]
        assert exe.tree.parent_of(2) == t.stage_id
        assert [c.task_id for c in exe.stages[2].tasks] == ["task2_0", "task2_1"]
        exe.retire_task(exe.stages[2].tasks[0])
        assert [c.task_id for c in exe.stages[2].tasks] == ["task2_1"]
        assert t in exe.stages[1].tasks and t.dop == 1


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
        assert b.seq == 1  # seq numbers never reused (task ids stay unique)

    def test_task_dop_uniform(self):
        # a task-DOP change sets every task of the stage
        exe = schedule_query(P.fragment_plan(q3_plan()), Cluster.presto_testbed(), stage_dop=2)
        DynamicScheduler(exe).set_task_dop(2, 3)
        s = exe.stages[2]
        assert s.task_dop == 3
        assert [t.dop for t in s.tasks] == [3, 3]

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
