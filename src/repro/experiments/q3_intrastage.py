"""Experiment E2 — §6.3 stage DOP runtime tuning (Q3, plus Q1/Q5/Q7).

Reproduces the §6.3 narrative and Fig. 25a numbers for Q3:

* scripted intra-stage tuning: three adjustments for stage 3, five for
  stage 1; both stages hold (broadcast) joins, so every adjustment incurs
  a hash-table reconstruction — T_build averaged 2.991 s for S3 and
  14.11 s for S1 in the paper, both proportional to the build-side data
  volume;
* the *last* stage-1 request is rejected by the coordinator because the
  estimated remaining time is below T_build (§5.2 filter);
* paper tuned result: 194.76 s, a 73.71 % reduction from 740.34 s;
* the IntraStage-Inc sweep mirrors §6.2's but includes rebuild delays.

Q1 (scan/agg stage — no rebuild needed), Q5 and Q7 (deeper join chains)
are run with generic ramp-up scripts for the Fig. 25b–d shapes.
"""
from __future__ import annotations

from repro.core import AutoTuner, ScriptExecutor
from repro.core.script import AP
from repro.engine.exec_sim import SimExecutor
from repro.experiments.q3_intratask import inc_sweep
from repro.experiments.report import reduction_pct
from repro.queries.tpch import QUERIES

PAPER = {
    "baseline_s": 740.34,
    "tuned_s": 194.76,
    "reduction_pct": 73.71,
    "t_build_s3_s": 2.991,
    "t_build_s1_s": 14.11,
    "last_request_rejected": True,
}

#: Three S3 adjustments, five S1 adjustments; the last one lands close to
#: the end so the filter rejects it (T_remain < T_build).
Q3_SCRIPT = """
AP S3,1,2 @ 5
AP S3,2,4 @ 15
AP S3,4,6 @ 25
AP S1,1,2 @ 30
AP S1,2,4 @ 45
AP S1,4,6 @ 60
AP S1,6,8 @ 75
AP S1,8,12 @ 232
"""

GENERIC_SCRIPTS = {
    "Q1": "AP S1,1,2 @ 10\nAP S1,2,4 @ 30\nAP S1,4,8 @ 60",
    "Q5": "AP S3,1,2 @ 30\nAP S1,1,2 @ 60\nAP S1,2,4 @ 120\nAP S1,4,8 @ 200",
    "Q7": (
        "AP S7,1,2 @ 20\nAP S7,2,4 @ 50\n"
        "AP S2,1,2 @ 30\nAP S2,2,4 @ 60\nAP S2,4,8 @ 120"
    ),
}


def _run_scripted(name: str, script_text: str) -> dict:
    qdef = QUERIES[name]
    baseline = SimExecutor(qdef.sim_query(), stage_dop=1, task_dop=1).run()
    ex = SimExecutor(qdef.sim_query(), stage_dop=1, task_dop=1)
    tuner = AutoTuner(ex)
    script = ScriptExecutor.from_text(script_text)
    tuned = ex.run(controllers=[script.controller(tuner)])
    builds_by_stage: dict[int, list[float]] = {}
    for op in ex.rebuild_log:
        builds_by_stage.setdefault(op.stage_id, []).append(op.build_time_s)
    return {
        "query": name,
        "baseline_s": baseline,
        "tuned_s": tuned,
        "reduction_pct": reduction_pct(baseline, tuned),
        "rejected": [f"{a.notation()} — {a.reason}" for a in script.rejected()],
        "t_build_avg_s": {
            sid: sum(v) / len(v) for sid, v in builds_by_stage.items()
        },
    }


def run() -> dict:
    q3 = _run_scripted("Q3", Q3_SCRIPT)
    intra_stage_inc = inc_sweep(AP)

    others = {name: _run_scripted(name, s) for name, s in GENERIC_SCRIPTS.items()}
    return {
        "paper": PAPER,
        "q3": q3,
        "intra_stage_inc_sweep_s": intra_stage_inc,
        "other_queries": others,
    }
