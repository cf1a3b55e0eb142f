"""Experiment E5 — §6.5.1 stage remaining execution time prediction (Q3).

The query starts with stage DOP 2 and task DOP 3. Before each scripted
stage-DOP adjustment, the what-if service predicts the stage's remaining
time at the new parallelism; afterwards we compare the predicted
completion time against the stage's actual (simulated) finish.

Paper's worked numbers: stage 3 adjusted at t=10 s, predicted remaining
14.22 s -> completion 24.22 s, actual 23.37 s; stage 1 adjusted at
t=40 s, predicted completion 66.24 s, actual 71.55 s.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import AutoTuner, RuntimeInfoCollector, TuningRequest, WhatIfService
from repro.core.filter import STAGE
from repro.engine.exec_sim import SimExecutor
from repro.queries.tpch import QUERIES

PAPER = {
    "s3": {"adjust_at_s": 10.0, "predicted_end_s": 24.22, "actual_end_s": 23.37},
    "s1": {"adjust_at_s": 40.0, "predicted_end_s": 66.24, "actual_end_s": 71.55},
}

#: (time, stage, new stage DOP) — mirrors the paper's two adjustments.
ADJUSTMENTS = [(10.0, 3, 8), (40.0, 1, 8)]


@dataclass
class _PredicterCtrl:
    tuner: AutoTuner
    whatif: WhatIfService
    pending: list[tuple[float, int, int]] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)

    def __call__(self, t: float, ex: SimExecutor) -> None:
        while self.pending and self.pending[0][0] <= t:
            at, sid, dop = self.pending.pop(0)
            pred = self.whatif.predict(sid, dop)
            out = self.tuner.direct(TuningRequest(STAGE, sid, dop))
            self.records.append(
                {
                    "stage": sid,
                    "adjust_at_s": t,
                    "t_remain_s": pred.t_remain_s,
                    "t_tuning_s": pred.t_tuning_s,
                    "n_f": pred.n_f,
                    "predicted_end_s": t + pred.t_predicted_s,
                    "applied": out.applied,
                }
            )


def run() -> dict:
    ex = SimExecutor(QUERIES["Q3"].sim_query(), stage_dop=2, task_dop=3)
    tuner = AutoTuner(ex)
    ctrl = _PredicterCtrl(tuner, tuner.whatif, pending=sorted(ADJUSTMENTS))
    total = ex.run(controllers=[ctrl])
    info = RuntimeInfoCollector(ex).collect()
    for rec in ctrl.records:
        rec["actual_end_s"] = info[rec["stage"]].end_at
        if rec["actual_end_s"] is not None:
            rec["abs_error_s"] = abs(rec["actual_end_s"] - rec["predicted_end_s"])
    return {"paper": PAPER, "total_s": total, "predictions": ctrl.records}
