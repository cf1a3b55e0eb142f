"""Object-level integration: the topology a worker keeps — the stages'
task lists (whose parent tasks are a child's buffer-ID array and whose
child tasks are a task's remote split set, §4.2.1/§4.3) and driver counts —
wired together by the scheduler the way the coordinator drives it, and the
executor moving bytes over it: scan -> output buffer -> downstream task,
the end signal, drivers as the unit of processing.
"""
import pytest

from repro.cluster import Cluster
from repro.core import RuntimeInfoCollector
from repro.engine.exec_sim import SimExecutor
from repro.engine.plan import fragment_plan
from repro.engine.scheduler import DynamicScheduler, schedule_query
from repro.queries.tpch import QUERIES, q2j_plan, q3_plan


@pytest.fixture()
def q2j_exe():
    return schedule_query(fragment_plan(q2j_plan()), Cluster.presto_testbed(),
                          stage_dop=2)


@pytest.fixture()
def q3_exe():
    return schedule_query(fragment_plan(q3_plan()), Cluster.presto_testbed())


@pytest.fixture()
def q3_sim():
    return SimExecutor(QUERIES["Q3"].sim_query())


def _steps(ex, n):
    for _ in range(n):
        ex.step()


class TestPageFlow:
    def test_scan_driver_to_output_buffer_to_downstream(self, q3_sim):
        # stage 4 (orders scan) produces bytes into stage 3's probe-side
        # buffer; the join still waits for its build, so they queue there
        _steps(q3_sim, 20)
        s4, s3 = q3_sim.states[4], q3_sim.states[3]
        assert s4.produced > 0
        assert not s3.built and s3.consumed == 0.0
        assert s3.in_buf.level == pytest.approx(s4.produced)
        # backpressure: the producer filled the buffer and no further
        assert s3.in_buf.level <= s3.in_buf.capacity + 1

    def test_filter_selectivity_applied_in_driver(self, q3_sim):
        # stage 4's fragment filters orders: its output is the consumed
        # volume scaled by the fragment's selectivity
        _steps(q3_sim, 20)
        s4 = q3_sim.states[4]
        sel = q3_sim.query.costs[4].selectivity
        assert sel < 1.0
        assert s4.consumed > 0
        assert s4.produced == pytest.approx(sel * s4.consumed)

    def test_shuffle_buffer_partitions_across_downstream_tasks(self, q2j_exe):
        # Q2J's scan stages feed a partitioned join, hash-partitioning their
        # output into one task group: a partition per S1 task
        tree = q2j_exe.tree
        assert tree[1].partitioned
        assert tree.parent_of(2) == tree.parent_of(3) == 1
        assert [t.task_id for t in q2j_exe.stages[1].tasks] == ["task1_0", "task1_1"]


class TestEndPageProtocol:
    def test_end_signal_reaches_every_downstream_task_once(self, q3_sim):
        # each stage ends after every stage feeding it
        q3_sim.run()
        for sid, st in q3_sim.states.items():
            assert st.ended
            for child in q3_sim.query.tree.children_of(sid):
                assert q3_sim.states[child].end_at <= st.end_at
        # after its end a buffer stops counting starvation
        collector = RuntimeInfoCollector(q3_sim)

        def counters():
            return {sid: s.turn_up_counter for sid, s in collector.collect().stages.items()}
        before = counters()
        q3_sim.states[0].in_buf.take(1.0)
        assert counters() == before

    def test_driver_close_relays_end_through_all_operators(self):
        # §4.3: lowering the driver count closes drivers — their node slots
        # are released — while the task keeps running to the end
        ex = SimExecutor(QUERIES["Q3"].sim_query(), task_dop=2)
        _steps(ex, 5)
        # stage 5 scans the build side, which stage 3 ingests right away
        node = ex.cluster.node(ex.exe.stages[5].tasks[0].node_id)
        before = node.active_drivers
        assert ex.set_task_dop(5, 1).applied
        assert node.active_drivers == before - 1
        consumed = ex.states[5].consumed
        _steps(ex, 5)
        assert ex.states[5].consumed > consumed
        ex.run()
        assert ex.states[5].ended

    def test_remove_task_end_to_end(self, q2j_exe):
        """§4.4 decreasing stage DOP: end signals to child buffers, the
        victim leaves the stage the parent reads and the child buffers
        serve, and its drivers leave its node."""
        sched = DynamicScheduler(q2j_exe)
        sched.add_tasks(1, 1)  # S1: 2 -> 3 tasks
        drivers = sum(n.active_drivers for n in q2j_exe.cluster.nodes)
        victims, _ = sched.remove_tasks(1, 1)
        assert [t.task_id for t in victims] == ["task1_2"]
        assert [t.task_id for t in q2j_exe.stages[1].tasks] == ["task1_0", "task1_1"]
        assert sum(n.active_drivers for n in q2j_exe.cluster.nodes) == drivers - victims[0].dop


class TestIntraTaskDopObjectLevel:
    def test_new_driver_uses_global_remote_split_set(self, q3_exe):
        # §4.3: new drivers read through the task's existing remote split
        # set — its children's tasks — without the coordinator: no task is
        # added or moved, and only the task's node takes the new drivers
        task = q3_exe.stages[1].tasks[0]
        tasks_before = {sid: list(st.tasks) for sid, st in q3_exe.stages.items()}
        drivers = [n.active_drivers for n in q3_exe.cluster.nodes]
        q3_exe.set_drivers(task, 3)
        assert task.dop == 3
        assert {sid: st.tasks for sid, st in q3_exe.stages.items()} == tasks_before
        assert [n.active_drivers - d for n, d in zip(q3_exe.cluster.nodes, drivers)] == [
            2 if n.node_id == task.node_id else 0 for n in q3_exe.cluster.nodes
        ]

    def test_drivers_process_independently(self, q3_sim):
        # each driver adds its own processing rate; closing one leaves the
        # other working (stage 2 has no shuffle cap, so its output capacity
        # is its input capacity times the selectivity)
        one = q3_sim.snapshot()[2].output_capacity_bytes_s
        assert q3_sim.set_task_dop(2, 2).applied
        assert q3_sim.snapshot()[2].output_capacity_bytes_s == pytest.approx(2 * one)
        assert q3_sim.set_task_dop(2, 1).applied
        assert q3_sim.snapshot()[2].output_capacity_bytes_s == pytest.approx(one)
        assert one > 0


class TestSharedBufferDownstreamGrowth:
    def test_new_parent_task_gets_buffer_id_dynamically(self, q3_exe):
        # §4.2.1: S4's shared buffer serves S3's tasks, so its buffer-ID
        # array grows with S3 while S4 itself is untouched
        s4_tasks = list(q3_exe.stages[4].tasks)
        assert q3_exe.tree.parent_of(4) == 3 and not q3_exe.tree[3].partitioned
        DynamicScheduler(q3_exe).add_tasks(3, 2)
        assert [t.task_id for t in q3_exe.stages[3].tasks] == ["task3_0", "task3_1", "task3_2"]
        assert q3_exe.stages[4].tasks == s4_tasks
