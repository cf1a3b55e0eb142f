"""Experiment E6 — §6.5.2 automatic DOP tuning (Q2 and Q3).

The DOP monitor periodically compares each table-scan stage's progress
with its deadline and incrementally adjusts the consuming (knob) stage's
parallelism — raising it (AP) when behind, and releasing resources (RP)
when ahead of schedule.

* **Q2** — target 100 s. The DOP planner starts the query at stage DOP 3,
  task DOP 2 and sets per-scan deadlines: S11 (subquery partsupp scan) by
  50 s, S2 (top partsupp scan) by 100 s. Parallelism-reduction overhead
  in the paper averages 42 ms (pure scheduling).
* **Q3** — target 200 s, deadlines: S4 (orders scan) by 80 s, S2
  (lineitem scan) by 200 s. At ~150 s a *new* constraint arrives through
  the UI: S1 must finish within 30 s of that point; the tuner discards
  the old plan for that unit and re-tunes (the paper applies AP S1,4,8).
"""
from __future__ import annotations

from repro.core import AutoTuner, RuntimeInfoCollector, ScriptExecutor
from repro.engine.exec_sim import SimExecutor
from repro.queries.tpch import QUERIES

PAPER = {
    "q2": {"target_s": 100.0, "deadline_s11_s": 50.0, "deadline_s2_s": 100.0,
           "rp_latency_s": 0.042},
    "q3": {"target_s": 200.0, "deadline_s4_s": 80.0, "deadline_s2_s": 200.0,
           "new_constraint_at_s": 150.0, "new_constraint_window_s": 30.0},
}


def _log_rows(tuner: AutoTuner) -> list[dict]:
    return [
        {
            "t": round(e.t, 1),
            "action": e.notation(),
            "accepted": e.accepted,
            "reason": e.reason,
            "latency_s": round(e.latency_s, 4),
        }
        for e in tuner.log
    ]


def run_q2() -> dict:
    ex = SimExecutor(QUERIES["Q2"].sim_query(), stage_dop=3, task_dop=2)
    tuner = AutoTuner(ex)
    tuner.set_constraint(11, PAPER["q2"]["deadline_s11_s"])
    tuner.set_constraint(2, PAPER["q2"]["deadline_s2_s"])
    total = ex.run(controllers=[tuner.monitor])
    info = RuntimeInfoCollector(ex).collect()
    reductions = [e for e in tuner.log if e.is_reduction]
    return {
        "total_s": total,
        "target_s": PAPER["q2"]["target_s"],
        "met": total <= PAPER["q2"]["target_s"] * 1.1,
        "scan_end_s11_s": info[11].end_at,
        "scan_end_s2_s": info[2].end_at,
        "adjustments": _log_rows(tuner),
        "rp_latency_avg_s": (
            sum(e.latency_s for e in reductions) / len(reductions)
            if reductions
            else 0.0
        ),
    }


def run_q3() -> dict:
    ex = SimExecutor(QUERIES["Q3"].sim_query(), stage_dop=3, task_dop=2)
    tuner = AutoTuner(ex)
    tuner.set_constraint(4, PAPER["q3"]["deadline_s4_s"])
    tuner.set_constraint(2, PAPER["q3"]["deadline_s2_s"])
    script = ScriptExecutor.from_text(
        f"CONSTRAINT S1,{int(PAPER['q3']['new_constraint_window_s'])} "
        f"@ {PAPER['q3']['new_constraint_at_s']}"
    )
    total = ex.run(controllers=[script.controller(tuner), tuner.monitor])
    new_deadline = PAPER["q3"]["new_constraint_at_s"] + PAPER["q3"]["new_constraint_window_s"]
    s1_end = RuntimeInfoCollector(ex).collect()[1].end_at
    return {
        "total_s": total,
        "target_s": PAPER["q3"]["target_s"],
        "met": total <= PAPER["q3"]["target_s"] * 1.1,
        "s1_end_s": s1_end,
        "new_constraint_deadline_s": new_deadline,
        "new_constraint_met": s1_end is not None and s1_end <= new_deadline * 1.15,
        "adjustments": _log_rows(tuner),
    }


def run() -> dict:
    return {"paper": PAPER, "q2": run_q2(), "q3": run_q3()}
