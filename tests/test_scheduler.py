"""Tests for static scheduling and the dynamic scheduler (§4.3–§4.4)."""
import pytest

from repro.cluster import Cluster
from repro.engine.plan import fragment_plan
from repro.engine.scheduler import DynamicScheduler, schedule_query
from repro.queries.tpch import q2j_plan, q3_plan


def _q3_exe(stage_dop=1, task_dop=1):
    return schedule_query(
        fragment_plan(q3_plan()), Cluster.presto_testbed(),
        stage_dop=stage_dop, task_dop=task_dop,
    )


def _q2j_exe(stage_dop=2):
    return schedule_query(
        fragment_plan(q2j_plan()), Cluster.presto_testbed(), stage_dop=stage_dop
    )


class TestScheduleQuery:
    def test_all_stages_scheduled(self):
        exe = _q3_exe()
        assert sorted(exe.stages) == [0, 1, 2, 3, 4, 5]
        assert all(s.dop == 1 for s in exe.stages.values())

    def test_task_dop_applied(self):
        exe = _q3_exe(task_dop=3)
        assert exe.stages[2].task_dop == 3

    def test_final_stage_dop_pinned_to_one(self):
        # §4.1: final aggregation parallelism fixed at 1
        exe = _q3_exe(stage_dop=4)
        assert exe.stages[0].dop == 1
        assert exe.stages[0].task_dop == 1
        assert exe.stages[1].dop == 4

    def test_per_stage_dop_map(self):
        tree = fragment_plan(q2j_plan())
        exe = schedule_query(tree, Cluster.presto_testbed(),
                             stage_dop={1: 10, 2: 2, 3: 2})
        assert exe.stages[1].dop == 10
        assert exe.stages[2].dop == 2

    def test_pinned_nodes(self):
        tree = fragment_plan(q2j_plan())
        exe = schedule_query(tree, Cluster.presto_testbed(), stage_dop=2,
                             pinned_nodes={2: ["storage0", "storage1"]})
        assert [t.node_id for t in exe.stages[2].tasks] == ["storage0", "storage1"]

    def test_bottom_up_wiring(self):
        # every parent task holds a buffer id in each child stage's output
        # buffer, so it reads from all of that stage's tasks
        exe = _q3_exe(stage_dop=2)
        s1_seqs = [t.seq for t in exe.stages[1].tasks]
        assert s1_seqs == [0, 1]
        for cid in (2, 3):
            assert exe.out_buffers[cid].buffer_ids == s1_seqs
            assert [t.task_id for t in exe.stages[cid].tasks] == [f"task{cid}_0", f"task{cid}_1"]

    def test_partitioned_join_children_get_shuffle_buffers(self):
        exe = _q2j_exe()
        assert exe.out_buffers[2].shuffle
        assert exe.out_buffers[3].shuffle
        assert not exe.out_buffers[1].shuffle

    def test_broadcast_join_children_get_shared_buffers(self):
        exe = _q3_exe()
        assert not exe.out_buffers[2].shuffle

    def test_init_rpc_accounting(self):
        # paper Q3: 65 requests, ~313 ms (1–10 ms each)
        exe = _q3_exe()
        assert 55 <= exe.init_rpc_requests <= 75
        assert 0.1 <= exe.init_time_s <= 0.8

    def test_node_driver_accounting(self):
        cluster = Cluster.presto_testbed()
        schedule_query(fragment_plan(q3_plan()), cluster, stage_dop=1, task_dop=2)
        total = sum(n.active_drivers for n in cluster.nodes)
        # 5 non-final stages x 2 drivers + final stage x 1
        assert total == 11


class TestDynamicScheduler:
    def test_set_task_dop(self):
        exe = _q3_exe()
        sched = DynamicScheduler(exe)
        cost = sched.set_task_dop(1, 4)
        assert exe.stages[1].task_dop == 4
        assert cost > 0

    def test_set_task_dop_updates_node_load(self):
        exe = _q3_exe()
        node_id = exe.stages[1].tasks[0].node_id
        before = exe.cluster.node(node_id).active_drivers
        DynamicScheduler(exe).set_task_dop(1, 5)
        assert exe.cluster.node(node_id).active_drivers == before + 4

    def test_set_task_dop_final_stage_rejected(self):
        exe = _q3_exe()
        with pytest.raises(ValueError):
            DynamicScheduler(exe).set_task_dop(0, 2)

    def test_add_tasks_three_steps(self):
        # §4.4: the new task joins its stage, which the parent reads through
        # the stage's output buffer, and holds a buffer id in every child
        # stage's output buffer
        exe = _q3_exe()
        sched = DynamicScheduler(exe)
        new, cost = sched.add_tasks(3, 1)
        task = new[0]
        assert exe.stages[3].dop == 2 and task in exe.stages[3].tasks
        for cid in (4, 5):
            assert task.seq in exe.out_buffers[cid].buffer_ids
            assert exe.out_buffers[cid].buffer_ids == [t.seq for t in exe.stages[3].tasks]
        assert exe.out_buffers[3].buffer_ids == [t.seq for t in exe.stages[1].tasks]
        assert cost > 0

    def test_add_tasks_final_stage_rejected(self):
        exe = _q3_exe()
        with pytest.raises(ValueError):
            DynamicScheduler(exe).add_tasks(0, 1)

    def test_add_tasks_allocates_buffer_ids(self):
        exe = _q2j_exe()
        sched = DynamicScheduler(exe)
        before = len(exe.out_buffers[2].buffer_ids)
        sched.add_tasks(1, 2)
        assert len(exe.out_buffers[2].buffer_ids) == before + 2

    def test_remove_tasks_drops_addresses(self):
        # §4.4: end signal path — the victim leaves its stage, which the
        # parents read, and its buffer ids leave the children's buffers
        exe = _q3_exe(stage_dop=3)
        sched = DynamicScheduler(exe)
        victims, _ = sched.remove_tasks(3, 1)
        assert exe.stages[3].dop == 2
        assert victims[0] not in exe.stages[3].tasks
        for cid in (4, 5):
            assert victims[0].seq not in exe.out_buffers[cid].buffer_ids
            assert exe.out_buffers[cid].buffer_ids == [t.seq for t in exe.stages[3].tasks]

    def test_remove_tasks_releases_node_drivers(self):
        exe = _q3_exe(stage_dop=2, task_dop=2)
        node_id = exe.stages[3].tasks[-1].node_id
        before = exe.cluster.node(node_id).active_drivers
        DynamicScheduler(exe).remove_tasks(3, 1)
        assert exe.cluster.node(node_id).active_drivers == before - 2
