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
  (execution dependency);
* runtime DOP changes through the dynamic scheduler: driver changes take
  effect immediately; a join-stage change is one :class:`RebuildOp` whose
  new tasks probe from its ``done_at`` — broadcast-join growth adds tasks
  after a parallel full rebuild, and partitioned-join DOP switching builds
  a new task group (reshuffle of the cached build side + build, Table 2)
  while the old group keeps probing (Fig. 26), then retires the old group.

A stage's rates are piecewise-constant: its tasks' input capacity and
output shuffle cap change only when a task or driver count changes (which
also moves the CPU share of every stage on the same nodes) or when a
rebuilt task starts probing. Each stage caches its per-tick rates and its
output capacity, and refills them after a topology change or at its next
activation. A tick is one frame, ``step``: it steps only the stages that
have not ended, reading and writing buffer fields directly, and resizes
the live buffers in one call every 500 ms. Controllers (script executor,
DOP monitor) return the time of their next wake, and ``run`` calls none
of them on the ticks in between.

Data moves only as byte volumes here. The engine keeps the *topology*
beside it: stages, tasks with their driver counts, and output-buffer ID
groups, whose id table also stands for §4.3's remote split sets. The
dynamic scheduler updates that topology on every DOP change, and a retired
task group leaves it through the same ``QueryExecution.retire_task`` as
any other removed task. The control plane (scheduler, tuner, filter) thus
acts on real engine structures, while the byte-flow arithmetic stays cheap
enough to simulate thousands of seconds in milliseconds.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.cluster import Cluster, RpcModel, calibration as cal
from repro.core.runtime_info import QueryInfo, StageInfo, TuningOutcome
from repro.engine.hashjoin import RebuildOp
from repro.engine.plan import StageTree
from repro.engine.scheduler import DynamicScheduler, QueryExecution, schedule_query
from repro.engine.stage import Stage

_EPS = 1.0  # byte epsilon for "drained"
_INF = float("inf")

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
    out_shuffle_rate_mb_s: float | None = None
    per_task_rate: bool = False


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
        if frag.is_scan:
            return self.costs[sid].scan_bytes
        return self.expected_output_bytes(frag.main_source.child_stage_id)

    def expected_output_bytes(self, sid: int) -> float:
        return self.expected_input_bytes(sid) * self.costs[sid].selectivity

    def expected_build_bytes(self, sid: int) -> float:
        build = self.tree[sid].build_source
        if build is None:
            return 0.0
        return self.expected_output_bytes(build.child_stage_id)


@dataclass(slots=True)
class ByteElasticBuffer:
    """The runtime elastic buffer (§4.2.2, Fig. 11) over byte volumes.

    Capacity is adjusted by the *consumer*, at page granularity: start at
    one page, grow by a page each time the consumer finds it empty (each
    grow bumps the **turn-up counter**, the §5.1 bottleneck signal), and
    every 500 ms resize to the recent consumption volume. The producer
    reads ``capacity - level`` as its free space and adds to ``level``;
    ``level <= _EPS`` means drained.
    """

    capacity: float = float(DEFAULT_PAGE_BYTES)
    level: float = 0.0
    turn_up_counter: int = 0
    ended: bool = False
    consumed_since_resize: float = 0.0

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

    @staticmethod
    def resize_all(buffers) -> None:
        """The 500 ms resize of each buffer: capacity follows the recent
        consumption, never below one page."""
        page = float(DEFAULT_PAGE_BYTES)
        for buf in buffers:
            cap = 1.2 * buf.consumed_since_resize
            buf.capacity = cap if cap > page else page
            buf.consumed_since_resize = 0.0


@dataclass(slots=True)
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
    #: task_id -> simulated time at which the task may start probing
    #: (the ``done_at`` of the rebuild that added it).
    active_from: dict[str, float] = field(default_factory=dict)
    #: partitioned joins: the DOP switch in flight; when it completes,
    #: every task outside its new group is retired.
    pending_switch: RebuildOp | None = None
    #: the probing tasks' per-tick (input capacity, output shuffle cap) in
    #: bytes. Rates are piecewise-constant: None after a topology change,
    #: and stale from ``rates_until``, the next ``active_from`` after the fill.
    rates: tuple[float, float] | None = None
    rates_until: float = 0.0
    #: filled with ``rates``: the peak output rate in bytes/s of the probing
    #: tasks, or of all tasks while none probes (§5.3's n_f cap).
    output_capacity: float = 0.0
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
        """The reported stage DOP: during a partitioned switch, the old
        group only; a broadcast stage counts its tasks still rebuilding."""
        if self.pending_switch is not None:
            return self.stage.dop - len(self.pending_switch.new_task_ids)
        return self.stage.dop


class _SampleView(Sequence):
    """A read-only view of the first ``len(series)`` samples of an
    append-only progress series, in O(1): a later append leaves it as it
    is, so a snapshot need not copy the series."""

    __slots__ = ("_series", "_n")

    def __init__(self, series: list[tuple[float, float]]) -> None:
        self._series = series
        self._n = len(series)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> tuple[float, float]:
        if 0 <= i < self._n:
            return self._series[i]
        if -self._n <= i < 0:
            return self._series[i + self._n]
        raise IndexError("sample index out of range")

    def __repr__(self) -> str:
        return repr(tuple(self))


class SimExecutor:
    """Runs one SimQuery to completion under runtime DOP control; the
    control plane's ``core.runtime_info.DataPlane``."""

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
        self.tree = query.tree
        self.cluster = cluster or Cluster.presto_testbed()
        self.node_cores = self.cluster.compute_nodes()[0].cores
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
        #: every hash-table (re)construction triggered by DOP tuning.
        self.rebuild_log: list[RebuildOp] = []
        #: the finished partitioned DOP switches: Table 2's rows.
        self.state_transfers: list[RebuildOp] = []
        self.done = False
        self.total_time_s: float | None = None
        self._sample_every = 1.0
        self._last_sample = 0.0

        self.states: dict[int, _StageState] = {}
        for sid in query.tree.stage_ids():
            frag = query.tree[sid]
            st = _StageState(stage=self.exe.stages[sid], cost=query.costs[sid])
            st.is_scan = frag.is_scan
            st.has_join = frag.has_join
            st.partitioned = frag.partitioned
            if st.is_scan:
                st.scan_remaining = st.cost.scan_bytes
            if st.has_join:
                st.built = False
                st.build_buf = ByteElasticBuffer()
            st.expected_in = query.expected_input_bytes(sid)
            st.expected_build = query.expected_build_bytes(sid)
            self.states[sid] = st
        #: the stages not yet ended, children before parents.
        self._live = [self.states[sid] for sid in query.tree.topological()]
        self._root = self.states[query.tree.root_id]
        #: the buffers not yet ended: each is made at t = 0 and resized on
        #: one 500 ms clock.
        self._buffers = [
            b for st in self.states.values() for b in (st.in_buf, st.build_buf) if b is not None
        ]
        self._last_resize = 0.0
        #: bytes/s one task ingests of a join's build side.
        self._build_rate = cal.mb_s(cal.BUILD_RATE_MB_S)
        #: the earliest ``done_at`` of the partitioned DOP switches in
        #: flight (inf while none is).
        self._switch_due = _INF
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
    def _probing_tasks(self, st: _StageState):
        if not st.active_from:  # no task was ever rebuilt: every task probes
            return st.stage.tasks
        return [t for t in st.stage.tasks if st.active_from.get(t.task_id, 0.0) <= self.t]

    def _input_bytes_s(self, st: _StageState, tasks) -> float:
        """Bytes/s ``tasks`` of this stage consume at their CPU share."""
        rate = cal.mb_s(st.cost.per_driver_rate_mb_s)
        if st.cost.per_task_rate:
            return len(tasks) * rate
        node = self.cluster.node
        total = 0.0
        for task in tasks:
            total += task.dop * node(task.node_id).cpu_scale() * rate
        return total

    def _shuffle_bytes_s(self, st: _StageState, tasks) -> float:
        """Bytes/s ``tasks`` can ship downstream (per-task shuffle cap)."""
        if st.cost.out_shuffle_rate_mb_s is None:
            return float("inf")
        return len(tasks) * cal.mb_s(st.cost.out_shuffle_rate_mb_s)

    def _fill_rates(self, st: _StageState) -> tuple[float, float]:
        """Cache the stage's per-tick rates and output capacity until its
        next activation."""
        probing = self._probing_tasks(st)
        in_bytes_s = self._input_bytes_s(st, probing)
        out_bytes_s = self._shuffle_bytes_s(st, probing)
        st.rates = (in_bytes_s * self.dt, out_bytes_s * self.dt)
        if not probing:  # while none probes: the tasks rebuilding
            in_bytes_s = self._input_bytes_s(st, st.stage.tasks)
            out_bytes_s = self._shuffle_bytes_s(st, st.stage.tasks)
        st.output_capacity = min(in_bytes_s * st.cost.selectivity, out_bytes_s)
        st.rates_until = min((a for a in st.active_from.values() if a > self.t), default=_INF)
        return st.rates

    def _topology_changed(self) -> None:
        """Empty every stage's rates: a task or driver count changed, and
        with it the CPU share of every stage on the nodes involved."""
        for st in self.states.values():
            st.rates = None

    def _process_pending(self) -> None:
        for st in self.states.values():
            op = st.pending_switch
            if op is not None and self.t >= op.done_at:
                # the probe side is on the new task group (§4.5): retire the old one
                new = set(op.new_task_ids)
                for task in [t for t in st.stage.tasks if t.task_id not in new]:
                    self.exe.retire_task(task)
                self._topology_changed()
                self.state_transfers.append(op)
                st.pending_switch = None
        self._switch_due = min(
            (st.pending_switch.done_at for st in self.states.values()
             if st.pending_switch is not None),
            default=_INF,
        )

    # ------------------------------------------------------------------ step
    def step(self) -> None:
        """One tick of ``dt``: every live stage, children before parents,
        then the 500 ms buffer resize and the 1 s progress sample."""
        if self.done:
            return
        t = self.t = self.t + self.dt
        if t >= self._switch_due:
            self._process_pending()
        # The hot loop, in one frame: buffer fields are read and written
        # here directly, with min/max spelled as comparisons in the same
        # order, so every float matches the buffer's own arithmetic. Only a
        # buffer holding more than _EPS is taken from inline: a starving or
        # drained one goes through take(), which alone states the
        # starvation rule.
        dt = self.dt
        build_rate = self._build_rate
        for st in self._live:  # a stage that ends rebinds _live, not this list
            # ---- join build phase: ingest the build side ------------------
            if not st.built:  # only a join starts unbuilt
                buf = st.build_buf
                want = (len(st.stage.tasks) or 1) * build_rate * dt
                level = buf.level
                if level > _EPS:
                    got = want if want < level else level
                    buf.level = level - got
                    buf.consumed_since_resize += got
                else:
                    got = buf.take(want)
                st.build_received += got
                if buf.ended and buf.level <= _EPS:
                    st.built = True
                    st.build_done_at = t
            # ---- main (probe) flow ---------------------------------------
            rates = st.rates
            if rates is None or t >= st.rates_until:
                rates = self._fill_rates(st)
            in_cap, out_cap = rates
            sel = st.cost.selectivity
            limit = in_cap if st.built else 0.0
            out_buf = st.out_buf
            shuffle_bound = False
            if sel > 0:
                if out_buf is not None:  # backpressure: the parent's free space
                    free = out_buf.capacity - out_buf.level
                    cap = (free if free > 0.0 else 0.0) / sel
                    if cap < limit:
                        limit = cap
                if out_cap < _INF:
                    cap = out_cap / sel
                    if cap < limit:
                        shuffle_bound = True
                        limit = cap
            if st.is_scan:
                remaining = st.scan_remaining
                got = remaining if remaining < limit else limit
                st.scan_remaining = remaining - got
                input_done = st.scan_remaining <= _EPS
            else:
                buf = st.in_buf
                level = buf.level
                if level > _EPS:
                    got = limit if limit < level else level
                    buf.level = level - got
                    buf.consumed_since_resize += got
                else:
                    got = buf.take(limit)
                input_done = buf.ended and buf.level <= _EPS
            if shuffle_bound and got > 0:
                st.shuffle_bound = True
            st.consumed += got
            out = got * sel
            st.produced += out
            if out_buf is not None:
                out_buf.level += out
            # ---- end detection -------------------------------------------
            if input_done and st.built:
                st.ended = True
                st.end_at = t
                self._live = [s for s in self._live if s is not st]
                # A switch still in flight when the probe finishes is moot —
                # the filter should have rejected it (§5.2); drop it.
                st.pending_switch = None
                # Propagate end pages upward: the parent's buffer ends once
                # every stage feeding it has ended.
                if out_buf is not None and all(self.states[s].ended for s in st.out_feeders):
                    out_buf.ended = True
                    # no producer is left to read its capacity, and take()
                    # reads none once ended: it needs no more resizes
                    self._buffers = [b for b in self._buffers if b is not out_buf]
        if t - self._last_resize >= cal.BUFFER_RESIZE_INTERVAL_S:
            self._last_resize = t
            ByteElasticBuffer.resize_all(self._buffers)
        if t - self._last_sample >= self._sample_every:
            for st in self.states.values():
                st.cum_consumed_samples.append((t, st.consumed))
            self._last_sample = t
        if self._root.ended:
            self.done = True
            self.total_time_s = t + self.exe.init_time_s

    def run(self, *, controllers=(), max_s: float = 1e7) -> float:
        """Run to completion under ``controllers`` (script executor,
        auto-tuner): callables ``(t, executor)`` called before a tick. Each
        returns the simulated time of its next wake, or None for the next
        tick, and is next called on the first tick with ``t >=`` that time."""
        wakes = [0.0] * len(controllers)
        due = 0.0
        while not self.done and self.t < max_s:
            t = self.t
            if t >= due:
                for i, c in enumerate(controllers):
                    if t >= wakes[i]:
                        wake = c(t, self)
                        wakes[i] = t if wake is None else wake
                due = min(wakes, default=_INF)
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
        if n == st.stage.task_dop:
            return TuningOutcome(False, "no-op: requested current task DOP")
        try:
            latency = self.sched.set_task_dop(stage_id, n)
        except ValueError as exc:
            return TuningOutcome(False, str(exc))
        finally:
            self._topology_changed()
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
        # rates refill on the next step, after every path below has applied
        # its change or been rejected
        self._topology_changed()
        if st.partitioned and st.pending_switch is not None:
            return TuningOutcome(False, "DOP switch already in progress")
        if n < cur and not st.partitioned:
            _, latency = self.sched.remove_tasks(stage_id, cur - n)
            return TuningOutcome(True, latency_s=latency)
        # a partitioned join switches to a new group of n tasks (§4.5);
        # any other stage grows by the difference
        new_tasks, latency = self.sched.add_tasks(stage_id, n if st.partitioned else n - cur)
        if not st.has_join:
            return TuningOutcome(True, latency_s=latency)
        op = RebuildOp(
            stage_id, cur, n, st.partitioned, st.expected_build, self.t,
            [t.task_id for t in new_tasks],
        )
        self.rebuild_log.append(op)
        for t in new_tasks:
            st.active_from[t.task_id] = op.done_at
        if st.partitioned:
            st.pending_switch = op
            self._switch_due = min(self._switch_due, op.done_at)
        return TuningOutcome(True, latency_s=latency, rebuild=op)

    # ------------------------------------------------------- runtime queries
    def selectivity(self, stage_id: int) -> float:
        return self.query.costs[stage_id].selectivity

    def snapshot(self) -> QueryInfo:
        """Each stage's runtime facts. A stage's output capacity is the peak
        output rate in bytes/s of its probing tasks (all of them while none
        probes), capped by its output shuffle."""
        info = QueryInfo(t=self.t, done=self.done)
        for sid, st in self.states.items():
            if st.rates is None or self.t >= st.rates_until:
                self._fill_rates(st)
            info.stages[sid] = StageInfo(
                stage_id=sid,
                dop=st.effective_dop(),
                task_dop=st.stage.task_dop,
                finished=st.ended,
                consumed_bytes=st.consumed,
                expected_input_bytes=st.expected_in,
                remaining_bytes=(
                    st.scan_remaining if st.is_scan else max(0.0, st.expected_in - st.consumed)
                ),
                turn_up_counter=st.in_buf.turn_up_counter,
                build_bytes=st.expected_build,
                shuffle_bound=st.shuffle_bound,
                switching=st.pending_switch is not None,
                output_capacity_bytes_s=st.output_capacity,
                end_at=st.end_at,
                samples=_SampleView(st.cum_consumed_samples),
            )
        return info
