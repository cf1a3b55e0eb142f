"""Initial scheduling and the dynamic scheduler (§2, §4.3–§4.4).

``schedule_query`` traverses the stage tree bottom-up and creates tasks for
each stage — Presto's behaviour, with DOPs fixed before execution. A
stage's task list is the simulator's only topology record: with
all-to-all exchange, §4.2.1's buffer-ID array of a child's output buffer
is its parent's live tasks, and §4.3's remote split set of a task is its
children's live tasks, so neither is stored.

``DynamicScheduler`` is Accordion's addition: it breaks that early binding
by spawning/terminating tasks (intra-stage DOP, §4.4) and drivers
(intra-task DOP, §4.3) at runtime. Every task enters through
``QueryExecution.add_task``, leaves through ``retire_task``, and changes
its driver count through ``set_drivers``, which alone keep the nodes'
driver counts. Every control action is charged to the RPC model, which is
where the paper's scheduling overheads (~tens of ms per adjustment, 313 ms
initial plan) come from.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import Cluster, RpcModel
from repro.engine.plan import StageTree
from repro.engine.stage import Stage
from repro.engine.task import Task


@dataclass
class QueryExecution:
    """A scheduled query: stages, their tasks' placement and driver
    accounting, and control-plane accounting."""

    tree: StageTree
    cluster: Cluster
    #: stage id -> the nodes its tasks are pinned to (scan stages co-located
    #: with their table's storage nodes).
    pinned_nodes: dict[int, list[str]] = field(default_factory=dict)
    stages: dict[int, Stage] = field(default_factory=dict)
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

    def add_task(self, stage: Stage, dop: int) -> Task:
        """Place a new task of ``dop`` drivers in the stage and occupy its
        node's drivers. A stage pinned to nodes that holds k tasks puts the
        next one on ``pinned[k % len(pinned)]``, at scheduling time and at
        runtime alike; any other task goes round-robin on compute nodes.
        The RPC cost is the caller's to charge."""
        pinned = self.pinned_nodes.get(stage.stage_id)
        if pinned:
            node = self.cluster.node(pinned[stage.dop % len(pinned)])
        else:
            node = self.cluster.place_task()
        task = stage.new_task(node.node_id)
        task.dop = dop
        node.add_drivers(dop)
        return task

    def set_drivers(self, task: Task, n: int) -> None:
        """Set a task's driver count (§4.3: spawn drivers, or close them
        through the end-page relay), moving its node's driver count by the
        difference."""
        node = self.cluster.node(task.node_id)
        if n > task.dop:
            node.add_drivers(n - task.dop)
        else:
            node.remove_drivers(task.dop - n)
        task.dop = n

    def retire_task(self, task: Task) -> None:
        """Take a task out of the topology (§4.4 decreasing stage DOP, §4.5
        retiring an old task group): release its node drivers and remove it
        from its stage. The RPC cost is the caller's to charge."""
        self.cluster.node(task.node_id).remove_drivers(task.dop)
        self.stages[task.stage_id].remove_task(task)


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
        n_tasks = stage_dop.get(sid, 1) if isinstance(stage_dop, dict) else stage_dop
        for _ in range(n_tasks):
            exe.add_task(stage, task_dop)
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
            exe.set_drivers(t, 1)

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
            self.exe.set_drivers(task, n)
        return self.exe.charge_rpc(len(stage.tasks))

    # ------------------------------------------------------ intra-stage (§4.4)
    def add_tasks(self, stage_id: int, n: int) -> tuple[list[Task], float]:
        """§4.4 Increasing stage DOP: generate new tasks, which read from
        every live task of the child stages and which the parent stage reads
        through this stage's output buffer. A partitioned join's new tasks
        are the new task group of a §4.5 switch. Returns (new tasks,
        control latency)."""
        stage = self.exe.stages[stage_id]
        if n < 1:
            raise ValueError(f"must add at least one task, got {n}")
        if stage.fragment.pinned:
            raise ValueError(f"stage {stage_id} holds a final agg; stage DOP pinned to 1")
        task_dop = stage.task_dop or 1
        new_tasks = [self.exe.add_task(stage, task_dop) for _ in range(n)]
        # One batched creation request plus a per-task ack: the paper
        # measures ~23 ms average for a stage-DOP adjustment (§6.4.1) —
        # address wiring piggybacks on existing heartbeats.
        cost = self.exe.charge_rpc(2 + n)
        return new_tasks, cost

    def remove_tasks(self, stage_id: int, n: int) -> tuple[list[Task], float]:
        """§4.4 Decreasing stage DOP: end signals to the child stages'
        output buffers for the victims; end pages flow through the victims
        to the parents."""
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
