"""Tests for static scheduling and the dynamic scheduler (§4.3–§4.4)."""
import ast
from pathlib import Path

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
        # each child stage's output buffer serves every task of its parent
        # (all-to-all exchange), so the parent's task list is that buffer's
        # id array: S1's two tasks read from both tasks of S2 and of S3
        exe = _q3_exe(stage_dop=2)
        assert [t.task_id for t in exe.stages[1].tasks] == ["task1_0", "task1_1"]
        for cid in (2, 3):
            assert exe.tree.parent_of(cid) == 1
            assert [t.task_id for t in exe.stages[cid].tasks] == [f"task{cid}_0", f"task{cid}_1"]

    def test_init_rpc_accounting(self):
        # paper Q3: 65 requests, ~313 ms (1–10 ms each)
        exe = _q3_exe()
        assert 55 <= exe.init_rpc_requests <= 75
        assert 0.1 <= exe.init_time_s <= 0.8

    @pytest.mark.parametrize("stage_dop,task_dop", [(1, 2), (3, 2)], ids=["1x2", "E6-3x2"])
    def test_node_driver_accounting(self, stage_dop, task_dop):
        # the final-stage pin retires S0's extra tasks and closes its extra
        # drivers; the nodes release exactly those
        cluster = Cluster.presto_testbed()
        exe = schedule_query(fragment_plan(q3_plan()), cluster,
                             stage_dop=stage_dop, task_dop=task_dop)
        total = sum(n.active_drivers for n in cluster.nodes)
        assert total == sum(t.dop for s in exe.stages.values() for t in s.tasks)
        # 5 non-final stages x stage_dop tasks x task_dop drivers + final stage x 1
        assert total == 5 * stage_dop * task_dop + 1


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
        # the stage's output buffer; it reads from every live task of the
        # child stages, which stay as they are; its drivers occupy its node
        exe = _q3_exe()
        children = {cid: list(exe.stages[cid].tasks) for cid in (4, 5)}
        drivers = sum(n.active_drivers for n in exe.cluster.nodes)
        new, cost = DynamicScheduler(exe).add_tasks(3, 1)
        task = new[0]
        assert [t.task_id for t in exe.stages[3].tasks] == ["task3_0", task.task_id]
        assert {cid: exe.stages[cid].tasks for cid in (4, 5)} == children
        assert exe.tree.parent_of(3) == 1
        assert sum(n.active_drivers for n in exe.cluster.nodes) == drivers + task.dop
        assert cost > 0

    def test_add_tasks_final_stage_rejected(self):
        exe = _q3_exe()
        with pytest.raises(ValueError):
            DynamicScheduler(exe).add_tasks(0, 1)

    def test_add_tasks_extends_the_readers(self):
        # the children's buffers serve the parent's tasks: two new S1 tasks
        # with fresh ids, on top of the two it had
        exe = _q2j_exe()
        new, _ = DynamicScheduler(exe).add_tasks(1, 2)
        assert [t.task_id for t in new] == ["task1_2", "task1_3"]
        assert [t.seq for t in exe.stages[1].tasks] == [0, 1, 2, 3]

    def test_remove_tasks_drops_addresses(self):
        # §4.4: end signal path — the victim leaves its stage, which both
        # its parent reads and its children's buffers serve; the children
        # keep their tasks
        exe = _q3_exe(stage_dop=3)
        children = {cid: list(exe.stages[cid].tasks) for cid in (4, 5)}
        victims, _ = DynamicScheduler(exe).remove_tasks(3, 1)
        assert [t.task_id for t in victims] == ["task3_2"]
        assert [t.task_id for t in exe.stages[3].tasks] == ["task3_0", "task3_1"]
        assert {cid: exe.stages[cid].tasks for cid in (4, 5)} == children

    def test_remove_tasks_releases_node_drivers(self):
        exe = _q3_exe(stage_dop=2, task_dop=2)
        node_id = exe.stages[3].tasks[-1].node_id
        before = exe.cluster.node(node_id).active_drivers
        DynamicScheduler(exe).remove_tasks(3, 1)
        assert exe.cluster.node(node_id).active_drivers == before - 2


SRC = Path(__file__).resolve().parents[1] / "src"


def driver_writers(source: str) -> list[tuple[int, str]]:
    """(line, function) for each change of a driver count in ``source``: a
    call of ``add_drivers`` or ``remove_drivers``, and a store, delete or
    ``setattr`` of a ``dop`` attribute. The function is the enclosing
    ``Class.method`` (``<module>`` outside any function)."""
    found = []

    def visit(node, scope: list[str], in_fn: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], True)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], in_fn)
                continue
            where = ".".join(scope) if in_fn else "<module>"
            if (isinstance(child, ast.Attribute) and child.attr == "dop"
                    and isinstance(child.ctx, (ast.Store, ast.Del))):
                found.append((child.lineno, where))
            elif isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Attribute) and func.attr in ("add_drivers", "remove_drivers"):
                    found.append((child.lineno, where))
                elif (isinstance(func, ast.Name) and func.id == "setattr"
                      and any(isinstance(a, ast.Constant) and a.value == "dop" for a in child.args)):
                    found.append((child.lineno, where))
            visit(child, scope, in_fn)

    visit(ast.parse(source), [], False)
    return sorted(found)


class TestDriverAccountingGuard:
    """Driver accounting has one home: no function under ``src/`` but
    ``QueryExecution``'s methods changes a task's or a node's driver count,
    so node ``active_drivers`` cannot drift from the sum of task DOPs."""

    @pytest.mark.parametrize("path", sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*.py")))
    def test_only_query_execution_changes_drivers(self, path):
        writers = driver_writers((SRC / path).read_text())
        assert [w for w in writers if not w[1].startswith("QueryExecution.")] == []

    def test_query_execution_is_the_writer(self):
        writers = driver_writers((SRC / "repro" / "engine" / "scheduler.py").read_text())
        assert {name for _, name in writers} == {
            "QueryExecution.add_task", "QueryExecution.set_drivers", "QueryExecution.retire_task",
        }

    def test_detector_flags_each_form(self):
        src = (
            "class QueryExecution:\n"
            "    def set_drivers(self, task, n):\n        task.dop = n\n"
            "class DynamicScheduler:\n"
            "    def grow(self, node, t):\n        node.add_drivers(2)\n        t.dop += 2\n"
            "    def shrink(self, t):\n        self.exe.cluster.node(t.node_id).remove_drivers(1)\n"
            "def pin(t):\n    setattr(t, 'dop', 1)\n"
            "def drop(t):\n    del t.dop\n"
            "def read(stage):\n    return Info(dop=stage.dop, n=stage.task_dop)\n"
            "t = T()\nt.dop = 2\n"
        )
        assert driver_writers(src) == [
            (3, "QueryExecution.set_drivers"), (6, "DynamicScheduler.grow"),
            (7, "DynamicScheduler.grow"), (9, "DynamicScheduler.shrink"), (11, "pin"),
            (13, "drop"), (17, "<module>"),
        ]
