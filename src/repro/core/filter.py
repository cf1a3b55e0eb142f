"""DOP tuning request filter (§5.2).

The filter blocks requests where tuning parallelism would be ineffective
or wasteful:

1. requests against queries or stages that have already finished;
2. unsuitable requests for join stages — if the stage is close enough to
   completion that rebuilding the hash table costs more than the time the
   stage has left (``T_remain < T_build``), the request is rejected.

It also drops structural no-ops (requested DOP == current DOP) and
requests against final-aggregation stages, whose parallelism is pinned to
1 by the two-phase aggregation model (§4.1).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.predictor import WhatIfService
from repro.core.runtime_info import DataPlane, QueryInfo

STAGE = "stage"
TASK = "task"


@dataclass
class TuningRequest:
    """A user/auto-tuner request to change one stage's parallelism."""

    kind: str  # STAGE or TASK
    stage_id: int
    new_dop: int


@dataclass
class FilterDecision:
    accepted: bool
    reason: str = ""


@dataclass
class TuningRequestFilter:
    """Accept/reject logic applied before any request reaches the dynamic
    optimizer (Fig. 8's 'tuning request filter')."""

    plane: DataPlane
    whatif: WhatIfService = field(init=False)

    def __post_init__(self) -> None:
        self.whatif = WhatIfService(self.plane)

    def check(self, req: TuningRequest, info: QueryInfo | None = None) -> FilterDecision:
        """Decide ``req`` against the snapshot ``info`` (collected now if
        none is given)."""
        return self._check(req, self.whatif.snapshot(info))

    def _check(self, req: TuningRequest, info: QueryInfo) -> FilterDecision:
        if info.done:
            return FilterDecision(False, "query already finished")
        s = info.stages.get(req.stage_id)
        if s is None:
            return FilterDecision(False, f"unknown stage {req.stage_id}")
        if s.finished:
            return FilterDecision(False, f"stage {req.stage_id} already finished")
        if req.new_dop < 1:
            return FilterDecision(False, "DOP must be >= 1")
        frag = self.plane.tree[req.stage_id]
        if frag.pinned:
            return FilterDecision(False, "final aggregation stage: parallelism fixed at 1 (§4.1)")
        cur = s.dop if req.kind == STAGE else s.task_dop
        if req.new_dop == cur:
            return FilterDecision(False, "no-op: stage already at requested DOP")
        # §5.2: join stages near completion — rebuilding costs more than the
        # time the stage has left.
        if req.kind == STAGE and frag.has_join and req.new_dop > cur:
            if s.switching:
                return FilterDecision(False, "a DOP switch is already in progress")
            t_remain = self.whatif.remaining_time_s(req.stage_id, info)
            t_build = self.whatif.build_time_s(req.stage_id, req.new_dop, info)
            if t_remain < t_build:
                return FilterDecision(
                    False,
                    f"estimated remaining time {t_remain:.2f}s < hash table "
                    f"build time {t_build:.2f}s — tuning would waste resources",
                )
        return FilterDecision(True)
