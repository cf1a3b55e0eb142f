"""DOP auto-tuner (§5.4, Fig. 19).

The tuner decomposes the stage info tree into **DOP tuning units** — each
unit pairs a progress indicator (a table-scan stage) with tuning knobs
(the intermediate stages consuming that scan's data). Units form the
execution DAG shown on the tuning panel.

Three request types are supported:

* **direct DOP tuning** — a manual adjustment, routed through the request
  filter and applied via the dynamic optimizer;
* **one-time auto-tuning** — build a DOP–time list from the what-if
  service and apply the configuration closest to (and satisfying) the
  latency constraint;
* **DOP monitor** — a periodic controller that tracks each scan stage's
  progress against its deadline and incrementally raises (AP) or lowers
  (RP) the knob DOP so the constraint is met with minimal resources.
  Constraints can be added or replaced mid-query (§6.5.2's Q3: a new
  30-second constraint arrives at ~150 s and the existing plan is
  discarded).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.filter import STAGE, TASK, TuningRequest, TuningRequestFilter
from repro.core.predictor import Prediction, WhatIfService, probe_scan_stage
from repro.core.runtime_info import DataPlane, TuningOutcome
from repro.engine.plan import StageTree


@dataclass
class TuningUnit:
    """Progress indicator (scan stage) + knob stages consuming its data."""

    scan_stage_id: int
    knob_stage_ids: list[int]


def build_tuning_units(tree: StageTree) -> list[TuningUnit]:
    """Decompose the stage tree into DOP tuning units (§5.4)."""
    units: dict[int, list[int]] = {}
    for sid in tree.stage_ids():
        if tree[sid].pinned:
            continue
        # Intermediate stages are knobs of their progress scan's unit; the
        # scan stage itself is also adjustable (Fig. 25b tunes Q1's S1,
        # a scan+partial-agg stage) and serves as the fallback knob.
        scan_sid = probe_scan_stage(tree, sid)
        units.setdefault(scan_sid, []).append(sid)
    return [TuningUnit(scan, sorted(knobs)) for scan, knobs in sorted(units.items())]


@dataclass
class TuningLogEntry:
    t: float
    request: TuningRequest
    accepted: bool
    reason: str
    latency_s: float = 0.0
    old_dop: int = 0

    @property
    def is_reduction(self) -> bool:
        return self.accepted and self.request.new_dop < self.old_dop

    def notation(self) -> str:
        """Paper notation: AP/RP Sn,a,b (AC for task-DOP requests)."""
        if self.request.kind == TASK:
            op = "AC"
        else:
            op = "RP" if self.request.new_dop < self.old_dop else "AP"
        return f"{op} S{self.request.stage_id},{self.old_dop},{self.request.new_dop}"


@dataclass
class Constraint:
    """Finish the unit whose progress indicator is ``scan_stage_id`` by
    absolute simulated time ``finish_by_s``."""

    scan_stage_id: int
    finish_by_s: float


@dataclass
class AutoTuner:
    """Fig. 8's auto-tuner: filter + what-if service + dynamic optimizer."""

    plane: DataPlane
    whatif: WhatIfService = field(init=False)
    filter: TuningRequestFilter = field(init=False)
    units: list[TuningUnit] = field(init=False)
    log: list[TuningLogEntry] = field(default_factory=list)
    constraints: dict[int, Constraint] = field(default_factory=dict)
    monitor_interval_s: float = 5.0
    _last_check: float = field(default=-1e9, repr=False)

    def __post_init__(self) -> None:
        self.filter = TuningRequestFilter(self.plane)
        self.whatif = self.filter.whatif
        self.units = build_tuning_units(self.plane.tree)

    # --------------------------------------------------------------- direct
    def direct(self, req: TuningRequest) -> TuningOutcome:
        """Manual adjustment: filter, then dynamic optimizer (Fig. 8)."""
        info = self.whatif.snapshot()
        s = info.stages.get(req.stage_id)
        old = 0
        if s is not None:
            old = s.task_dop if req.kind == TASK else s.dop
        decision = self.filter.check(req, info)
        if not decision.accepted:
            out = TuningOutcome(False, decision.reason)
        elif req.kind == TASK:
            out = self.plane.set_task_dop(req.stage_id, req.new_dop)
        else:
            out = self.plane.set_stage_dop(req.stage_id, req.new_dop)
        self.log.append(
            TuningLogEntry(info.t, req, out.applied, out.reason, out.latency_s, old)
        )
        return out

    # ------------------------------------------------------- one-time tuning
    def one_time(
        self, stage_id: int, latency_constraint_s: float, *, max_dop: int = 16
    ) -> tuple[Prediction | None, TuningOutcome | None]:
        """Tune a stage's DOP once so its predicted remaining time most
        closely satisfies the latency constraint (§5.4)."""
        info = self.whatif.snapshot()
        cur = info[stage_id].dop
        candidates = self.whatif.dop_time_list(
            stage_id, [d for d in range(1, max_dop + 1) if d != cur], info
        )
        feasible = [p for p in candidates if p.t_predicted_s <= latency_constraint_s]
        if feasible:
            # smallest DOP that satisfies the constraint: minimal resources.
            best = min(feasible, key=lambda p: p.requested_dop)
        else:
            best = min(candidates, key=lambda p: p.t_predicted_s) if candidates else None
        if best is None:
            return None, None
        out = self.direct(TuningRequest(STAGE, stage_id, best.requested_dop))
        return best, out

    # ------------------------------------------------------------- monitoring
    def set_constraint(self, scan_stage_id: int, finish_by_s: float) -> None:
        """Add/replace a per-unit deadline; an existing plan for that unit
        is discarded (§6.5.2)."""
        self.constraints[scan_stage_id] = Constraint(scan_stage_id, finish_by_s)

    def set_stage_deadline(self, stage_id: int, finish_by_s: float) -> None:
        """Deadline expressed against any stage: resolved to the scan stage
        that indicates its progress."""
        scan = probe_scan_stage(self.plane.tree, stage_id)
        self.set_constraint(scan, finish_by_s)

    def monitor(self, t: float, plane: DataPlane) -> float:
        """DOP monitor controller — pass into ``SimExecutor.run``; returns
        the time of its next check.

        Every ``monitor_interval_s``, against one runtime snapshot: for
        each constrained unit, compare the scan's required consumption rate
        with its recent rate and nudge the knob stage DOP up (AP) or down
        (RP) accordingly.
        """
        if t - self._last_check < self.monitor_interval_s:
            return self._last_check + self.monitor_interval_s
        self._last_check = t
        info = self.whatif.snapshot()
        for unit in self.units:
            c = self.constraints.get(unit.scan_stage_id)
            if c is None:
                continue
            scan = info[unit.scan_stage_id]
            if scan.finished:
                continue
            v_remain, r_now = scan.remaining_bytes, scan.recent_rate_bytes_s
            t_left = c.finish_by_s - t
            if v_remain <= 0:
                continue
            if t_left <= 0:
                required = float("inf")
            else:
                required = v_remain / t_left
            if r_now <= 0:
                continue
            # the knob limiting the scan right now: the first unfinished
            # knob stage consuming the scan's data
            knob = next((k for k in unit.knob_stage_ids if not info[k].finished), None)
            if knob is None:
                continue
            cur = info[knob].dop
            if required > r_now * 1.05:
                factor = min(required / r_now, self.whatif.max_n_f(knob, info))
                target = min(16, max(cur + 1, int(round(cur * factor))))
                if target != cur:
                    self.direct(TuningRequest(STAGE, knob, target))
            elif required < r_now * 0.75 and cur > 1:
                # ahead of schedule: release resources (RP, §6.5.2).
                target = max(1, int(cur * required / r_now * 1.15))
                if target < cur:
                    self.direct(TuningRequest(STAGE, knob, target))
        return self._last_check + self.monitor_interval_s
