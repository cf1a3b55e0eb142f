"""Discrete-time executor over a scheduled query (the timing data plane).

This is the substrate on which every §6 experiment runs. It executes a
:class:`SimQuery` — a fragmented stage tree annotated with per-stage cost
parameters — over the simulated cluster, modelling exactly the quantities
the paper's evaluation depends on:

* streaming dataflow with elastic-buffer backpressure (§4.2.2) — pages are
  tracked as byte volumes; buffers grow when the consumer starves (turn-up
  counter -> §5.1 bottleneck localization) and resize every 500 ms;
* per-driver processing rates with CPU time-slicing on nodes (the §6.2
  saturation plateau) and per-task shuffle-executor caps (§6.4.2);
* join build/probe phasing: probe waits for hash-table construction
  (execution dependency), build-side output is retained in the
  intermediate data cache (§4.5);
* runtime DOP changes through the dynamic scheduler: driver changes take
  effect immediately; broadcast-join stage growth activates new tasks
  after a parallel full rebuild; partitioned-join stage changes perform
  DOP switching via a new task group (reshuffle + build, Table 2) while
  the old group keeps probing (Fig. 26).

Data moves only as byte volumes here. The engine keeps the *topology*
beside it: stages, tasks with their driver counts, output-buffer ID groups
and remote split sets. The dynamic scheduler updates that topology on every
DOP change, and a retired task group leaves it through the same
``QueryExecution.retire_task`` as any other removed task. The control plane
(scheduler, tuner, filter) thus acts on real engine structures, while the
byte-flow arithmetic stays cheap enough to simulate thousands of seconds in
milliseconds.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import Cluster, RpcModel, calibration as cal
from repro.engine.hashjoin import (
    IntermediateDataCache,
    RebuildOp,
    StateTransferRecord,
    plan_broadcast_rebuild,
    plan_partitioned_switch,
)
from repro.engine.plan import HASH_JOIN, StageTree
from repro.engine.scheduler import DynamicScheduler, QueryExecution, schedule_query
from repro.engine.stage import Stage

_EPS = 1.0  # byte epsilon for "drained"

#: Page size at which elastic buffers grow (1 MB, the order of magnitude of
#: Presto's pages; buffers start at one-page capacity per §4.2.2).
DEFAULT_PAGE_BYTES = 1_000_000


@dataclass
class StageCost:
    """Cost annotations for one stage (see cluster.calibration for units).

    ``selectivity`` is output-bytes per input-byte for the whole fragment
    (filters, projections, partial aggregation, join fan-out folded in).
    ``per_task_rate`` marks shuffle stages whose throughput scales with the
    task count (executor-bound), not the driver count.
    """

    per_driver_rate_mb_s: float
    selectivity: float = 1.0
    scan_bytes: float = 0.0
    scan_rows: int = 0
    out_shuffle_rate_mb_s: float | None = None
    per_task_rate: bool = False
    build_rate_mb_s: float = cal.BUILD_RATE_MB_S
    rebuild_shuffle_rate_mb_s: float = cal.REBUILD_SHUFFLE_RATE_MB_S


@dataclass
class SimQuery:
    """A fragmented plan plus cost annotations and scan placement."""

    name: str
    tree: StageTree
    costs: dict[int, StageCost]
    pinned_nodes: dict[int, list[str]] = field(default_factory=dict)
    #: per-stage initial DOP overriding the executor-level default (QSHUF
    #: starts its join at DOP 10 while its scans sit on 2 storage nodes).
    initial_stage_dop: dict[int, int] = field(default_factory=dict)

    def expected_input_bytes(self, sid: int) -> float:
        """Total bytes this stage will consume on its main (probe) input."""
        frag = self.tree[sid]
        cost = self.costs[sid]
        if frag.is_scan():
            return cost.scan_bytes
        probe = frag.probe_source()
        if probe is not None:
            return self.expected_output_bytes(probe.child_stage_id)
        return sum(
            self.expected_output_bytes(s.child_stage_id)
            for s in frag.sources
            if s.role == "input"
        )

    def expected_output_bytes(self, sid: int) -> float:
        return self.expected_input_bytes(sid) * self.costs[sid].selectivity

    def expected_build_bytes(self, sid: int) -> float:
        build = self.tree[sid].build_source()
        if build is None:
            return 0.0
        return self.expected_output_bytes(build.child_stage_id)


@dataclass
class ByteElasticBuffer:
    """The runtime elastic buffer (§4.2.2, Fig. 11) over byte volumes.

    Capacity is adjusted by the *consumer*, at page granularity: start at
    one page, grow by a page each time the consumer finds it empty (each
    grow bumps the **turn-up counter**, the §5.1 bottleneck signal), and
    every 500 ms resize to the recent consumption volume.
    """

    capacity: float = float(DEFAULT_PAGE_BYTES)
    level: float = 0.0
    turn_up_counter: int = 0
    ended: bool = False
    consumed_since_resize: float = 0.0
    _last_resize: float = 0.0

    def free(self) -> float:
        return max(0.0, self.capacity - self.level)

    def push(self, nbytes: float) -> None:
        self.level += nbytes

    def take(self, want: float) -> float:
        """Consumer-side pull; starving (want > 0 on an empty, un-ended
        buffer) grows capacity and bumps the turn-up counter."""
        if want <= 0.0:
            return 0.0
        if self.level <= _EPS and not self.ended:
            self.turn_up_counter += 1
            self.capacity += DEFAULT_PAGE_BYTES
            got = self.level
        else:
            got = min(want, self.level)
        self.level -= got
        self.consumed_since_resize += got
        return got

    def tick(self, now: float) -> None:
        if now - self._last_resize < cal.BUFFER_RESIZE_INTERVAL_S:
            return
        self._last_resize = now
        self.capacity = max(float(DEFAULT_PAGE_BYTES), 1.2 * self.consumed_since_resize)
        self.consumed_since_resize = 0.0

    def drained(self) -> bool:
        return self.level <= _EPS


@dataclass
class TuningOutcome:
    """Result of a runtime DOP request at the executor level."""

    applied: bool
    reason: str = ""
    latency_s: float = 0.0
    rebuild: RebuildOp | None = None


@dataclass
class _StageState:
    stage: Stage
    cost: StageCost
    has_join: bool = False
    partitioned: bool = False
    is_scan: bool = False
    scan_remaining: float = 0.0
    in_buf: ByteElasticBuffer = field(default_factory=ByteElasticBuffer)
    build_buf: ByteElasticBuffer | None = None
    expected_in: float = 0.0
    expected_build: float = 0.0
    consumed: float = 0.0
    produced: float = 0.0
    build_received: float = 0.0
    built: bool = True
    build_done_at: float | None = None
    #: task_id -> simulated time at which the task may start probing.
    active_from: dict[str, float] = field(default_factory=dict)
    #: partitioned joins: the task group currently serving probes.
    probing_task_ids: list[str] | None = None
    pending_switch: RebuildOp | None = None
    pending_old_ids: list[str] = field(default_factory=list)
    #: the parent's buffer this stage pushes into (None at the root), and
    #: every stage feeding that buffer (the end page waits for all of them).
    out_buf: ByteElasticBuffer | None = None
    out_feeders: list[int] = field(default_factory=list)
    ended: bool = False
    end_at: float | None = None
    #: the output shuffle capped the stage's progress at least once.
    shuffle_bound: bool = False
    #: the stage's progress record: (t, cumulative consumed bytes), one
    #: sample per second of simulated time.
    cum_consumed_samples: list[tuple[float, float]] = field(default_factory=list)

    def effective_dop(self) -> int:
        if self.probing_task_ids is not None:
            return len(self.probing_task_ids)
        return self.stage.dop


class SimExecutor:
    """Runs one SimQuery to completion under runtime DOP control."""

    def __init__(
        self,
        query: SimQuery,
        *,
        cluster: Cluster | None = None,
        stage_dop: int = 1,
        task_dop: int = 1,
        rpc_seed: int = 0,
        dt: float = cal.SIM_DT_S,
    ) -> None:
        self.query = query
        self.cluster = cluster or Cluster.presto_testbed()
        self.dt = dt
        self.t = 0.0
        dops: int | dict[int, int] = stage_dop
        if query.initial_stage_dop:
            dops = {
                sid: query.initial_stage_dop.get(sid, stage_dop)
                for sid in query.tree.stage_ids()
            }
        self.exe: QueryExecution = schedule_query(
            query.tree,
            self.cluster,
            stage_dop=dops,
            task_dop=task_dop,
            pinned_nodes=query.pinned_nodes,
            rpc=RpcModel(seed=rpc_seed),
        )
        self.sched = DynamicScheduler(self.exe)
        self.cache = IntermediateDataCache()
        self.state_transfers: list[StateTransferRecord] = []
        #: every hash-table (re)construction triggered by DOP tuning.
        self.rebuild_log: list[RebuildOp] = []
        self.done = False
        self.total_time_s: float | None = None
        self._sample_every = 1.0
        self._last_sample = 0.0

        self.states: dict[int, _StageState] = {}
        for sid in query.tree.stage_ids():
            frag = query.tree[sid]
            st = _StageState(stage=self.exe.stages[sid], cost=query.costs[sid])
            st.is_scan = frag.is_scan()
            st.has_join = frag.has_join()
            joins = frag.root.find(HASH_JOIN)
            if len(joins) > 1:
                raise ValueError("at most one join per fragment supported")
            st.partitioned = bool(joins and joins[0].props.get("partitioned"))
            if st.is_scan:
                st.scan_remaining = st.cost.scan_bytes
            if st.has_join:
                st.built = False
                st.build_buf = ByteElasticBuffer()
            st.expected_in = query.expected_input_bytes(sid)
            st.expected_build = query.expected_build_bytes(sid)
            if st.partitioned:
                st.probing_task_ids = [t.task_id for t in st.stage.tasks]
            self.states[sid] = st
        self._topo = query.tree.topological()
        for sid, pst in self.states.items():
            for build in (False, True):
                feeders = [
                    s.child_stage_id
                    for s in query.tree[sid].sources
                    if (s.role == "build") == build
                ]
                for child in feeders:
                    self.states[child].out_buf = pst.build_buf if build else pst.in_buf
                    self.states[child].out_feeders = feeders

    # ------------------------------------------------------------------ flow
    def _cpu_scale(self, node_id: str) -> float:
        return self.cluster.node(node_id).cpu_scale()

    def _probing_tasks(self, st: _StageState):
        tasks = st.stage.tasks
        if st.probing_task_ids is not None:
            ids = set(st.probing_task_ids)
            tasks = [t for t in tasks if t.task_id in ids]
        return [
            t
            for t in tasks
            if st.active_from.get(t.task_id, 0.0) <= self.t
        ]

    def _input_bytes_s(self, st: _StageState, tasks) -> float:
        """Bytes/s ``tasks`` of this stage consume at their CPU share."""
        rate = cal.mb_s(st.cost.per_driver_rate_mb_s)
        if st.cost.per_task_rate:
            return len(tasks) * rate
        total = 0.0
        for task in tasks:
            total += task.dop * self._cpu_scale(task.node_id) * rate
        return total

    def _shuffle_bytes_s(self, st: _StageState, tasks) -> float:
        """Bytes/s ``tasks`` can ship downstream (per-task shuffle cap)."""
        if st.cost.out_shuffle_rate_mb_s is None:
            return float("inf")
        return len(tasks) * cal.mb_s(st.cost.out_shuffle_rate_mb_s)

    def _step_stage(self, sid: int) -> None:
        st = self.states[sid]
        if st.ended:
            return
        # ---- join build phase: ingest the build side ----------------------
        if st.has_join and not st.built:
            n_tasks = max(1, len(st.stage.tasks))
            want = n_tasks * cal.mb_s(st.cost.build_rate_mb_s) * self.dt
            assert st.build_buf is not None
            got = st.build_buf.take(want)
            st.build_received += got
            if st.build_buf.ended and st.build_buf.drained():
                st.built = True
                st.build_done_at = self.t
                # §4.5: build side cached for later reconstructions.
                build_src = self.query.tree[sid].build_source()
                if build_src is not None:
                    self.cache.put(build_src.child_stage_id, st.build_received)
        # ---- main (probe) flow -------------------------------------------
        tasks = self._probing_tasks(st)
        capacity = 0.0
        if st.built:
            capacity = self._input_bytes_s(st, tasks) * self.dt
        sel = st.cost.selectivity
        limit = capacity
        free = float("inf") if st.out_buf is None else st.out_buf.free()
        if sel > 0 and free < float("inf"):
            limit = min(limit, free / sel)
        out_cap = self._shuffle_bytes_s(st, tasks) * self.dt
        shuffle_bound = False
        if sel > 0 and out_cap < float("inf"):
            if out_cap / sel < limit:
                shuffle_bound = True
            limit = min(limit, out_cap / sel)
        if st.is_scan:
            got = min(limit, st.scan_remaining)
            st.scan_remaining -= got
        else:
            got = st.in_buf.take(limit)
        if shuffle_bound and got > 0:
            st.shuffle_bound = True
        st.consumed += got
        out = got * sel
        st.produced += out
        if st.out_buf is not None:
            st.out_buf.push(out)
        # ---- end detection ------------------------------------------------
        input_done = (
            (st.scan_remaining <= _EPS)
            if st.is_scan
            else (st.in_buf.ended and st.in_buf.drained())
        )
        if input_done and st.built:
            st.ended = True
            st.end_at = self.t
            # A switch still in flight when the probe finishes is moot —
            # the filter should have rejected it (§5.2); drop it.
            st.pending_switch = None
            st.pending_old_ids = []
            # Propagate end pages upward: the parent's buffer ends once
            # every stage feeding it has ended.
            if st.out_buf is not None and all(self.states[s].ended for s in st.out_feeders):
                st.out_buf.ended = True
            for task in st.stage.tasks:
                task.context.finished = True

    def _process_pending(self) -> None:
        for sid, st in self.states.items():
            op = st.pending_switch
            if op is not None and self.t >= op.done_at:
                # switch the probe side to the new task group (§4.5)
                st.probing_task_ids = list(op.new_task_ids)
                old = [t for t in st.stage.tasks if t.task_id in set(st.pending_old_ids)]
                for task in old:
                    self.exe.retire_task(task)
                self.state_transfers.append(op.record())
                st.pending_switch = None
                st.pending_old_ids = []

    # ------------------------------------------------------------------ step
    def step(self) -> None:
        if self.done:
            return
        self.t += self.dt
        self._process_pending()
        for sid in self._topo:
            self._step_stage(sid)
        for st in self.states.values():
            st.in_buf.tick(self.t)
            if st.build_buf is not None:
                st.build_buf.tick(self.t)
        if self.t - self._last_sample >= self._sample_every:
            for st in self.states.values():
                st.cum_consumed_samples.append((self.t, st.consumed))
            self._last_sample = self.t
        root = self.states[self.query.tree.root_id]
        if root.ended:
            self.done = True
            self.total_time_s = self.t + self.exe.init_time_s

    def run(self, *, controllers=(), max_s: float = 1e7) -> float:
        """Run to completion; ``controllers`` are callables (t, executor)
        invoked every tick (script executor, auto-tuner)."""
        while not self.done and self.t < max_s:
            for c in controllers:
                c(self.t, self)
            self.step()
        if not self.done:
            raise RuntimeError(f"query {self.query.name} did not finish by {max_s}s")
        return self.total_time_s  # type: ignore[return-value]

    # --------------------------------------------------------- DOP interface
    def set_task_dop(self, stage_id: int, n: int) -> TuningOutcome:
        """Intra-task runtime DOP tuning (§4.3)."""
        st = self.states[stage_id]
        if st.ended:
            return TuningOutcome(False, "stage already finished")
        try:
            latency = self.sched.set_task_dop(stage_id, n)
        except ValueError as exc:
            return TuningOutcome(False, str(exc))
        return TuningOutcome(True, latency_s=latency)

    def set_stage_dop(self, stage_id: int, n: int) -> TuningOutcome:
        """Intra-stage runtime DOP tuning (§4.4), with §4.5 hash-join
        semantics when the stage holds a join."""
        st = self.states[stage_id]
        if st.ended:
            return TuningOutcome(False, "stage already finished")
        cur = st.effective_dop()
        if n == cur:
            return TuningOutcome(False, "no-op: requested current DOP")
        try:
            return self._resize_stage(st, n, cur)
        except ValueError as exc:  # rejected by the scheduler
            return TuningOutcome(False, str(exc))

    def _resize_stage(self, st: _StageState, n: int, cur: int) -> TuningOutcome:
        stage_id = st.stage.stage_id
        if not st.has_join:
            if n > cur:
                _, latency = self.sched.add_tasks(stage_id, n - cur)
            else:
                _, latency = self.sched.remove_tasks(stage_id, cur - n)
            return TuningOutcome(True, latency_s=latency)
        # --- join stages ---------------------------------------------------
        build_bytes = st.expected_build
        if st.partitioned:
            if st.pending_switch is not None:
                return TuningOutcome(False, "DOP switch already in progress")
            old_ids = list(st.probing_task_ids or [])
            new_tasks, latency = self.sched.add_tasks(stage_id, n)
            op = plan_partitioned_switch(
                stage_id=stage_id,
                old_dop=cur,
                new_dop=n,
                build_bytes=build_bytes,
                now_s=self.t,
                rebuild_shuffle_rate_mb_s=st.cost.rebuild_shuffle_rate_mb_s,
                build_rate_mb_s=st.cost.build_rate_mb_s,
            )
            op.new_task_ids = [t.task_id for t in new_tasks]
            op.from_cache = True
            self.rebuild_log.append(op)
            st.pending_switch = op
            st.pending_old_ids = old_ids
            for t in new_tasks:
                st.active_from[t.task_id] = op.done_at
            return TuningOutcome(True, latency_s=latency, rebuild=op)
        # broadcast join
        if n > cur:
            new_tasks, latency = self.sched.add_tasks(stage_id, n - cur)
            op = plan_broadcast_rebuild(
                stage_id=stage_id,
                old_dop=cur,
                new_dop=n,
                build_bytes=build_bytes,
                now_s=self.t,
                build_rate_mb_s=st.cost.build_rate_mb_s,
            )
            op.new_task_ids = [t.task_id for t in new_tasks]
            self.rebuild_log.append(op)
            for t in new_tasks:
                st.active_from[t.task_id] = op.done_at
            return TuningOutcome(True, latency_s=latency, rebuild=op)
        _, latency = self.sched.remove_tasks(stage_id, cur - n)
        return TuningOutcome(True, latency_s=latency)

    # ------------------------------------------------------- runtime queries
    def stage_input_capacity_bytes_s(self, stage_id: int) -> float:
        """What the stage could consume per second with its current tasks
        and drivers at full CPU speed — the peak the probe side can reach
        without adding upstream resources (§5.3's n_f bound)."""
        st = self.states[stage_id]
        return self._input_bytes_s(st, self._probing_tasks(st) or st.stage.tasks)

    def stage_output_capacity_bytes_s(self, stage_id: int) -> float:
        st = self.states[stage_id]
        tasks = self._probing_tasks(st) or st.stage.tasks
        cap = self._input_bytes_s(st, tasks) * st.cost.selectivity
        return min(cap, self._shuffle_bytes_s(st, tasks))
