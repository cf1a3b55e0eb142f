"""Initial scheduling and the dynamic scheduler (§2, §4.3–§4.4).

``schedule_query`` traverses the stage tree bottom-up, creates tasks for
each stage, and registers each task's buffer id in every child stage's
output buffer — Presto's behaviour, with DOPs fixed before execution. The
buffer-id table is the simulator's model of §4.3's remote split sets: with
all-to-all exchange, a task's upstream set is its children's live tasks.

``DynamicScheduler`` is Accordion's addition: it breaks that early binding
by spawning/terminating tasks (intra-stage DOP, §4.4) and drivers
(intra-task DOP, §4.3) at runtime, confining topology changes to the
upstream/downstream buffers (§4.2). Every control action is charged to the
RPC model, which is where the paper's scheduling overheads (~tens of ms per
adjustment, 313 ms initial plan) come from.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import Cluster, Node, RpcModel
from repro.engine.buffers import OutputBuffer
from repro.engine.plan import StageTree
from repro.engine.stage import Stage
from repro.engine.task import Task


@dataclass
class QueryExecution:
    """A scheduled query: stages, their output buffers, and control-plane
    accounting."""

    tree: StageTree
    cluster: Cluster
    #: stage id -> the nodes its tasks are pinned to (scan stages co-located
    #: with their table's storage nodes).
    pinned_nodes: dict[int, list[str]] = field(default_factory=dict)
    stages: dict[int, Stage] = field(default_factory=dict)
    out_buffers: dict[int, OutputBuffer] = field(default_factory=dict)
    rpc: RpcModel = field(default_factory=RpcModel)
    rpc_requests: int = 0
    control_time_s: float = 0.0
    init_time_s: float = 0.0
    init_rpc_requests: int = 0

    def charge_rpc(self, n_requests: int) -> float:
        """Charge ``n_requests`` RESTful calls; returns their latency."""
        cost = self.rpc.batch_cost_s(n_requests)
        self.rpc_requests += n_requests
        self.control_time_s += cost
        return cost

    def child_stages(self, stage_id: int) -> list[Stage]:
        return [self.stages[c] for c in self.tree.children_of(stage_id)]

    def place_task(self, stage: Stage) -> Node:
        """The node for the stage's next task. A stage pinned to nodes that
        holds k tasks puts the next one on ``pinned[k % len(pinned)]``, at
        scheduling time and at runtime alike; any other task goes
        round-robin on compute nodes."""
        pinned = self.pinned_nodes.get(stage.stage_id)
        if pinned:
            return self.cluster.node(pinned[stage.dop % len(pinned)])
        return self.cluster.place_task()

    def retire_task(self, task: Task) -> None:
        """Take a task out of the topology (§4.4 decreasing stage DOP, §4.5
        retiring an old task group): drop its buffer id from the children's
        output buffers, release its node drivers, and remove it from its
        stage. The RPC cost is the caller's to charge."""
        for cstage in self.child_stages(task.stage_id):
            self.out_buffers[cstage.stage_id].remove_id(task.seq)
        self.cluster.node(task.node_id).remove_drivers(task.dop)
        self.stages[task.stage_id].remove_task(task)


def _needs_shuffle_buffer(exe: QueryExecution, stage_id: int) -> bool:
    """A stage needs a shuffle output buffer when its parent consumes it as
    the input of a partitioned operation (partitioned join side or an
    explicit shuffle stage)."""
    parent_id = exe.tree.parent_of(stage_id)
    if parent_id is None:
        return False
    pfrag = exe.tree[parent_id]
    return pfrag.partitioned or pfrag.is_shuffle


def _add_buffer_ids(exe: QueryExecution, stage: Stage, task: Task, *, new_group: bool = False) -> None:
    """Allocate the new task a buffer id in every child's output buffer,
    opening a new task group there if ``new_group``."""
    for cstage in exe.child_stages(stage.stage_id):
        exe.out_buffers[cstage.stage_id].add_id(task.seq, new_group=new_group)


def schedule_query(
    tree: StageTree,
    cluster: Cluster,
    *,
    stage_dop: int | dict[int, int] = 1,
    task_dop: int = 1,
    pinned_nodes: dict[int, list[str]] | None = None,
    rpc: RpcModel | None = None,
) -> QueryExecution:
    """Build the initial distributed execution plan (bottom-up, §4.4).

    ``stage_dop`` is either one DOP for every stage or a per-stage map
    (missing stages default to 1). ``pinned_nodes`` pins a stage's tasks
    to named nodes (scan stages co-located with their table's storage
    nodes); other stages are placed round-robin on compute nodes.
    Final-agg stages get DOP 1 (§4.1).
    """
    exe = QueryExecution(
        tree=tree, cluster=cluster, pinned_nodes=pinned_nodes or {}, rpc=rpc or RpcModel()
    )

    for sid in tree.topological():  # leaves first: bottom-up
        frag = tree[sid]
        stage = Stage(stage_id=sid, fragment=frag)
        exe.stages[sid] = stage
        exe.out_buffers[sid] = OutputBuffer(shuffle=_needs_shuffle_buffer(exe, sid))
        n_tasks = stage_dop.get(sid, 1) if isinstance(stage_dop, dict) else stage_dop
        for _ in range(n_tasks):
            node = exe.place_task(stage)
            task = stage.new_task(node.node_id)
            task.set_dop(task_dop)
            node.add_drivers(task.dop)
            _add_buffer_ids(exe, stage, task)
        # per task: create, pipeline setup, split assignment, up/down
        # address wiring, buffer registration, status, ack (8 round trips);
        # plus 2 stage-level status calls. Calibrated so a 6-stage DOP-1
        # plan (Q3) costs ~65 requests, as measured in §6.2.
        exe.charge_rpc(8 * n_tasks + 2)

    # Final stages: force DOP 1 after generic construction (§4.1).
    for stage in exe.stages.values():
        if not stage.fragment.pinned:
            continue
        while stage.dop > 1:
            exe.retire_task(stage.tasks[-1])
        for t in stage.tasks:
            if t.dop > 1:
                exe.cluster.node(t.node_id).remove_drivers(t.dop - 1)
        stage.set_task_dop(1)

    exe.charge_rpc(5)  # query-level coordinator round-trips
    exe.init_time_s = exe.control_time_s
    exe.init_rpc_requests = exe.rpc_requests
    return exe


@dataclass
class DynamicScheduler:
    """Runtime DOP tuning operations over a scheduled query (§4.3–4.4)."""

    exe: QueryExecution

    # ------------------------------------------------------- intra-task (§4.3)
    def set_task_dop(self, stage_id: int, n: int) -> float:
        """Change the driver count of every task in the stage. Returns the
        control-plane latency (the paper measures driver generation < 1 ms;
        the cost is the RESTful round trip per task)."""
        stage = self.exe.stages[stage_id]
        if n < 1:
            raise ValueError(f"task DOP must be >= 1, got {n}")
        if stage.fragment.pinned and n != 1:
            raise ValueError(f"stage {stage_id} holds a final agg; task DOP pinned to 1")
        for task in stage.tasks:
            old = task.dop
            task.set_dop(n)
            node = self.exe.cluster.node(task.node_id)
            if n > old:
                node.add_drivers(n - old)
            else:
                node.remove_drivers(old - n)
        return self.exe.charge_rpc(len(stage.tasks))

    # ------------------------------------------------------ intra-stage (§4.4)
    def add_tasks(self, stage_id: int, n: int) -> tuple[list[Task], float]:
        """§4.4 Increasing stage DOP: generate new tasks and give each a
        buffer id in every child stage's output buffer; the parent stage
        reads them through this stage's output buffer. Returns (new tasks,
        control latency)."""
        stage = self.exe.stages[stage_id]
        if n < 1:
            raise ValueError(f"must add at least one task, got {n}")
        if stage.fragment.pinned:
            raise ValueError(f"stage {stage_id} holds a final agg; stage DOP pinned to 1")
        task_dop = stage.task_dop or 1
        # §4.5: a partitioned join grows by switching to a new task group.
        switch = stage.fragment.partitioned
        new_tasks: list[Task] = []
        for i in range(n):
            node = self.exe.place_task(stage)
            task = stage.new_task(node.node_id)
            task.set_dop(task_dop)
            node.add_drivers(task.dop)
            _add_buffer_ids(self.exe, stage, task, new_group=switch and i == 0)
            new_tasks.append(task)
        # One batched creation request plus a per-task ack: the paper
        # measures ~23 ms average for a stage-DOP adjustment (§6.4.1) —
        # address wiring piggybacks on existing heartbeats.
        cost = self.exe.charge_rpc(2 + n)
        return new_tasks, cost

    def remove_tasks(self, stage_id: int, n: int) -> tuple[list[Task], float]:
        """§4.4 Decreasing stage DOP: end signals to the child stages'
        output buffers for the victims' buffer ids; end pages flow through
        the victims to the parents."""
        stage = self.exe.stages[stage_id]
        if not 1 <= n < stage.dop:
            raise ValueError(
                f"cannot remove {n} of stage {stage_id}'s {stage.dop} tasks; stage DOP must stay >= 1"
            )
        victims = stage.tasks[-n:]
        for task in victims:
            self.exe.retire_task(task)
        cost = self.exe.charge_rpc(2 * n)
        return victims, cost
