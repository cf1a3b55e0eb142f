"""Query runtime information collection (§5.1, Fig. 18).

Accordion organizes runtime information as a "query–stage–task" hierarchy:
each task stores counters in its task context; the coordinator's runtime
information collector periodically fetches them via task information
fetchers and aggregates by stage and query. ``RuntimeInfoCollector.collect``
is the control plane's only read of executor state: the auto-tuner,
predictor, filter and bottleneck localizer read its snapshots, plus the
static plan (stage tree, stage costs, node core count).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.exec_sim import SimExecutor


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
    history: list[QueryInfo] = field(default_factory=list)

    def collect(self) -> QueryInfo:
        ex = self.executor
        info = QueryInfo(t=ex.t, done=ex.done)
        for sid, st in ex.states.items():
            remaining, rate = ex.scan_progress(sid)
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
                recent_rate_bytes_s=rate,
                turn_up_counter=st.in_buf.turn_up_counter,
                build_bytes=st.expected_build,
                shuffle_bound=st.shuffle_bound_ticks > 0,
                switching=st.pending_switch is not None,
                output_capacity_bytes_s=ex.stage_output_capacity_bytes_s(sid),
                tasks=tasks,
            )
        self.history.append(info)
        return info
