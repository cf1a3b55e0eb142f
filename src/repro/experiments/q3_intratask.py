"""Experiment E1 — §6.2 task DOP runtime tuning on Q3.

Reproduces the §6.2 narrative and Fig. 22/24 headline numbers:

* baseline: Q3 with stage and task DOP 1 (paper: 740.34 s);
* scripted intra-task tuning: task DOP of stage 3 raised twice and stage 1
  three times; the *third* stage-1 adjustment must not improve throughput
  (CPU saturated by the first two — emergent from the upstream supply
  bound here);
* paper tuned result: 307.87 s, a 58.42 % reduction;
* overhead decomposition: driver generation < 1 ms, initial plan
  construction = 65 RESTful requests ≈ 313 ms;
* the Intra-Task sweep (fixed task DOP n from the start) and the
  IntraTask-Inc sweep (start at 1, step up to n every 30 s).
"""
from __future__ import annotations

import time

from repro.core import AutoTuner, RuntimeInfoCollector, ScriptExecutor, rate_at
from repro.core.script import AC
from repro.engine.exec_sim import SimExecutor
from repro.experiments.report import reduction_pct
from repro.queries.tpch import QUERIES

#: Paper reference numbers (§6.2).
PAPER = {
    "baseline_s": 740.34,
    "tuned_s": 307.87,
    "reduction_pct": 58.42,
    "plan_rpc_requests": 65,
    "plan_rpc_cost_s": 0.313,
    "driver_gen_ms_max": 1.0,
}

#: The tuning script: stage 3 twice, stage 1 three times (Fig. 24).
SCRIPT = """
AC S3,1,2 @ 20
AC S3,2,4 @ 60
AC S1,1,2 @ 130
AC S1,2,4 @ 180
AC S1,4,8 @ 280
"""


def inc_sweep(op: str) -> dict[int, float]:
    """Fig. 22's Inc sweep on Q3, by final DOP n = 2, 4, 8: start at DOP 1
    and double stages 1 and 3 every 30 s up to n, by ``op`` (AC: task DOP;
    AP: stage DOP, §6.3's IntraStage-Inc)."""
    out = {}
    for n in (2, 4, 8):
        ex = SimExecutor(QUERIES["Q3"].sim_query(), stage_dop=1, task_dop=1)
        script = ScriptExecutor.from_text("\n".join(
            f"{op} S{sid},{d // 2},{d} @ {30 * i + 30}"
            for i, d in enumerate(d for d in (2, 4, 8) if d <= n)
            for sid in (1, 3)
        ))
        out[n] = ex.run(controllers=[script.controller(AutoTuner(ex))])
    return out


def measure_driver_generation_ms() -> float:
    """Wall time to spawn one driver in a task (intra-task DOP +1) — the
    paper reports < 1 ms for task/driver generation. Timed on a throwaway
    executor so the measured runs' state is untouched."""
    task = SimExecutor(QUERIES["Q3"].sim_query()).exe.stages[1].tasks[0]
    t0 = time.perf_counter()
    task.set_dop(task.dop + 1)
    return (time.perf_counter() - t0) * 1e3


def run() -> dict:
    qdef = QUERIES["Q3"]

    baseline = SimExecutor(qdef.sim_query(), stage_dop=1, task_dop=1).run()

    ex = SimExecutor(qdef.sim_query(), stage_dop=1, task_dop=1)
    tuner = AutoTuner(ex)
    script = ScriptExecutor.from_text(SCRIPT)
    tuned = ex.run(controllers=[script.controller(tuner)])

    # Third stage-1 adjustment (4 -> 8 @ 280 s) should not raise throughput:
    # compare stage-1 throughput just before it with steady state after.
    s1 = RuntimeInfoCollector(ex).collect()[1]
    thr_before = rate_at(s1, 278.0)
    thr_after = rate_at(s1, 300.0)

    # Fig. 22 sweeps.
    intra_task = {}
    for n in (1, 2, 4, 8):
        intra_task[n] = SimExecutor(qdef.sim_query(), stage_dop=1, task_dop=n).run()
    intra_task_inc = inc_sweep(AC)

    return {
        "paper": PAPER,
        "baseline_s": baseline,
        "tuned_s": tuned,
        "reduction_pct": reduction_pct(baseline, tuned),
        "script": [a.notation() for a in script.actions],
        "script_applied": [a.notation() for a in script.applied()],
        "saturation_thr_before_mb_s": thr_before / 1e6,
        "saturation_thr_after_mb_s": thr_after / 1e6,
        "plan_rpc_requests": ex.exe.init_rpc_requests,
        "plan_rpc_cost_s": ex.exe.init_time_s,
        "driver_gen_ms": measure_driver_generation_ms(),
        "intra_task_sweep_s": intra_task,
        "intra_task_inc_sweep_s": intra_task_inc,
    }
