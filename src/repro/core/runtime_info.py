"""Query runtime information collection (§5.1, Fig. 18).

Accordion organizes runtime information as a "query–stage–task" hierarchy:
each task stores counters in its task context; the coordinator's runtime
information collector periodically fetches them via task information
fetchers and aggregates by stage and query. ``RuntimeInfoCollector.collect``
is the only read of executor state: the auto-tuner, predictor, filter,
bottleneck localizer and the experiments read its snapshots, plus the
static plan (stage tree, stage costs, node core count).

A stage's progress is one series of ``(t, cumulative consumed bytes)``
samples. Every rate is derived from it here: the recent consumption rate
(§5.2) by the collector, and the rate or volume over any past interval by
:func:`rate_at` and :func:`consumed_between`.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.engine.exec_sim import SimExecutor

#: Window over which the collector measures a stage's recent rate (§5.2).
RATE_WINDOW_S = 5.0


@dataclass
class TaskInfo:
    task_id: str
    node_id: str
    dop: int
    finished: bool


@dataclass
class StageInfo:
    stage_id: int
    dop: int
    task_dop: int
    is_scan: bool
    has_join: bool
    partitioned: bool
    finished: bool
    consumed_bytes: float
    expected_input_bytes: float
    remaining_bytes: float
    recent_rate_bytes_s: float
    turn_up_counter: int
    build_bytes: float
    shuffle_bound: bool
    #: a partitioned-join DOP switch is in flight (§4.5).
    switching: bool
    #: peak output rate with the current tasks and drivers (§5.3's n_f cap).
    output_capacity_bytes_s: float
    #: when the stage finished (None while it runs).
    end_at: float | None = None
    #: the progress series: (t, cumulative consumed bytes), in time order.
    samples: tuple[tuple[float, float], ...] = ()
    tasks: list[TaskInfo] = field(default_factory=list)

    @property
    def progress(self) -> float:
        if self.expected_input_bytes <= 0:
            return 1.0 if self.finished else 0.0
        return min(1.0, self.consumed_bytes / self.expected_input_bytes)


@dataclass
class QueryInfo:
    t: float
    done: bool
    stages: dict[int, StageInfo] = field(default_factory=dict)

    def scan_stages(self) -> list[StageInfo]:
        return [s for s in self.stages.values() if s.is_scan]

    def __getitem__(self, sid: int) -> StageInfo:
        return self.stages[sid]


@dataclass
class RuntimeInfoCollector:
    """The coordinator-side collector: ``collect()`` walks task contexts
    and aggregates them into the stage/query levels."""

    executor: SimExecutor

    def collect(self) -> QueryInfo:
        ex = self.executor
        info = QueryInfo(t=ex.t, done=ex.done)
        for sid, st in ex.states.items():
            samples = tuple(st.cum_consumed_samples)
            remaining = (
                st.scan_remaining if st.is_scan else max(0.0, st.expected_in - st.consumed)
            )
            tasks = [
                TaskInfo(t.task_id, t.node_id, t.dop, t.context.finished)
                for t in st.stage.tasks
            ]
            info.stages[sid] = StageInfo(
                stage_id=sid,
                dop=st.effective_dop(),
                task_dop=st.stage.task_dop,
                is_scan=st.is_scan,
                has_join=st.has_join,
                partitioned=st.partitioned,
                finished=st.ended,
                consumed_bytes=st.consumed,
                expected_input_bytes=st.expected_in,
                remaining_bytes=remaining,
                recent_rate_bytes_s=_recent_rate(samples, st.consumed, ex.t),
                turn_up_counter=st.in_buf.turn_up_counter,
                build_bytes=st.expected_build,
                shuffle_bound=st.shuffle_bound,
                switching=st.pending_switch is not None,
                output_capacity_bytes_s=ex.stage_output_capacity_bytes_s(sid),
                end_at=st.end_at,
                samples=samples,
                tasks=tasks,
            )
        return info


def _recent_rate(samples, consumed: float, t: float) -> float:
    """Consumption rate (bytes/s) over the last ``RATE_WINDOW_S`` seconds."""
    if len(samples) < 2:
        return consumed / max(1e-9, t)
    # samples are in time order: the first one inside the window
    first = bisect_left(samples, (t - RATE_WINDOW_S,))
    if len(samples) - first >= 2:
        (t0, c0), (t1, c1) = samples[first], samples[-1]
    else:
        (t0, c0), (t1, c1) = samples[-2], samples[-1]
    return (c1 - c0) / max(1e-9, t1 - t0)


def _samples_upto(stage: StageInfo, t: float) -> int:
    """Number of samples taken at or before ``t``."""
    return bisect_right(stage.samples, (t, float("inf")))


def rate_at(stage: StageInfo, t: float) -> float:
    """Rate (bytes/s) over the sample interval that ends at the latest
    sample <= ``t``, the first interval starting at (0, 0); 0.0 before
    the first sample."""
    i = _samples_upto(stage, t)
    if i == 0:
        return 0.0
    t0, c0 = stage.samples[i - 2] if i >= 2 else (0.0, 0.0)
    t1, c1 = stage.samples[i - 1]
    return (c1 - c0) / (t1 - t0)


def consumed_between(stage: StageInfo, t0: float, t1: float) -> float:
    """Bytes consumed between the latest samples <= ``t0`` and <= ``t1``;
    0.0 when no sample is that early."""
    i0, i1 = _samples_upto(stage, t0), _samples_upto(stage, t1)
    if i0 == 0 or i1 == 0:
        return 0.0
    return stage.samples[i1 - 1][1] - stage.samples[i0 - 1][1]
