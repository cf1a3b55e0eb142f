"""Query runtime information collection (§5.1, Fig. 18), and the contract
between the control plane and a data plane.

``DataPlane`` is everything ``repro.core`` reads from or does to a running
query: the static plan facts (stage tree, selectivities, cores per compute
node), a snapshot of each stage's runtime facts, and the two DOP requests.
The simulator (``engine.exec_sim.SimExecutor``) implements it.
``RuntimeInfoCollector.collect`` is the only caller of ``snapshot()``: the
auto-tuner, predictor, filter, bottleneck localizer and the experiments
read the collector's ``QueryInfo``.

A stage's progress is one series of ``(t, cumulative consumed bytes)``
samples. Every rate is derived from it here: the recent consumption rate
(§5.2) from the clock the collector stamps on the snapshot, and the rate
or volume over any past interval by :func:`rate_at` and
:func:`consumed_between`.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.engine.hashjoin import RebuildOp
    from repro.engine.plan import StageTree

#: Window over which the collector measures a stage's recent rate (§5.2).
RATE_WINDOW_S = 5.0


@dataclass
class StageInfo:
    """One stage's runtime facts, as its data plane reports them."""

    stage_id: int
    dop: int
    task_dop: int
    finished: bool
    consumed_bytes: float
    expected_input_bytes: float
    remaining_bytes: float
    turn_up_counter: int
    build_bytes: float
    shuffle_bound: bool
    #: a partitioned-join DOP switch is in flight (§4.5).
    switching: bool
    #: peak output rate with the current tasks and drivers (§5.3's n_f cap).
    output_capacity_bytes_s: float
    #: when the stage finished (None while it runs).
    end_at: float | None = None
    #: the progress series: (t, cumulative consumed bytes), in time order;
    #: any read-only sequence that a later change leaves as it is.
    samples: Sequence[tuple[float, float]] = ()
    #: the clock of the snapshot, stamped by the collector (None before).
    collected_at: float | None = None

    @property
    def recent_rate_bytes_s(self) -> float:
        """The §5.2 recent rate, derived from ``samples`` back from
        ``collected_at`` (0.0 before collection). It is derived on read, as
        a reader needs the rates of a few stages of a snapshot."""
        if self.collected_at is None:
            return 0.0
        return _recent_rate(self.samples, self.consumed_bytes, self.collected_at)


@dataclass
class QueryInfo:
    t: float
    done: bool
    stages: dict[int, StageInfo] = field(default_factory=dict)

    def __getitem__(self, sid: int) -> StageInfo:
        return self.stages[sid]


@dataclass
class TuningOutcome:
    """Result of a runtime DOP request at the data plane."""

    applied: bool
    reason: str = ""
    latency_s: float = 0.0
    rebuild: RebuildOp | None = None


class DataPlane(Protocol):
    """The data-plane contract: the members the control plane uses."""

    #: the query's fragmented plan (static).
    tree: StageTree
    #: cores of one compute node (§5.3's n_f cap on a scan stage).
    node_cores: int

    def selectivity(self, stage_id: int) -> float:
        """Output bytes per input byte of the stage (static)."""

    def snapshot(self) -> QueryInfo:
        """Every stage's runtime facts now; a later change leaves the
        returned snapshot as it is."""

    def set_stage_dop(self, stage_id: int, n: int) -> TuningOutcome:
        """Intra-stage DOP request (§4.4, §4.5)."""

    def set_task_dop(self, stage_id: int, n: int) -> TuningOutcome:
        """Intra-task DOP request (§4.3)."""


@dataclass
class RuntimeInfoCollector:
    """The coordinator-side collector: ``collect()`` takes the data plane's
    snapshot and stamps each stage with its clock, from which the stage's
    recent rate is derived."""

    plane: DataPlane

    def collect(self) -> QueryInfo:
        info = self.plane.snapshot()
        for s in info.stages.values():
            s.collected_at = info.t
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
