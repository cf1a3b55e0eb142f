"""Experiments T2 + E3 — §6.4.1 partitioned hash join DOP switching (Q2J).

Reproduces Table 2 (state-transfer decomposition of each DOP switch into
reshuffle + hash-table build time) and the §6.4.1 narrative:

* baseline: Q2J at stage DOP 2 = 1331.99 s (paper);
* three DOP switches (2→4, 4→6, 6→8) via new task groups fed from the
  intermediate data cache; probing is never interrupted (the old task
  group keeps serving during each rebuild);
* a fourth request near the end is rejected (T_remain < T_build);
* paper tuned result: 584.01 s, a 56.16 % reduction; query initialization
  284 ms; stage-DOP tuning control latency ~23 ms on average.

Paper Table 2:  2->4: total 42.67, shuffle 12.55, build 30.12
               4->6: total 29.03, shuffle  8.80, build 21.03
               6->8: total 21.61, shuffle  5.12, build 16.49
"""
from __future__ import annotations

from repro.core import AutoTuner, RuntimeInfoCollector, ScriptExecutor, consumed_between
from repro.engine.exec_sim import SimExecutor
from repro.experiments.report import reduction_pct
from repro.queries.tpch import QUERIES

PAPER = {
    "baseline_s": 1331.991,
    "tuned_s": 584.01,
    "reduction_pct": 56.16,
    "init_time_s": 0.284,
    "tuning_latency_s": 0.023,
    "table2": [
        {"DOP switching": "2 -> 4", "Total time": 42.67, "Shuffle time": 12.55, "Build time": 30.12},
        {"DOP switching": "4 -> 6", "Total time": 29.03, "Shuffle time": 8.80, "Build time": 21.03},
        {"DOP switching": "6 -> 8", "Total time": 21.61, "Shuffle time": 5.12, "Build time": 16.49},
    ],
}

SCRIPT = """
AP S1,2,4 @ 120
AP S1,4,6 @ 290
AP S1,6,8 @ 450
AP S1,8,10 @ 560
"""


def run() -> dict:
    qdef = QUERIES["Q2J"]
    baseline = SimExecutor(qdef.sim_query(), stage_dop=2, task_dop=1).run()

    ex = SimExecutor(qdef.sim_query(), stage_dop=2, task_dop=1)
    tuner = AutoTuner(ex)
    script = ScriptExecutor.from_text(SCRIPT)
    tuned = ex.run(controllers=[script.controller(tuner)])
    info = RuntimeInfoCollector(ex).collect()

    applied = [e for e in tuner.log if e.accepted]
    latencies = [e.latency_s for e in applied]
    # Probe continuity (Fig. 26): between each switch request and its
    # completion the join stage kept consuming bytes (old task group still
    # serving).
    continuity = [
        {
            "switch": f"{op.old_dop} -> {op.new_dop}",
            "bytes_during_rebuild": consumed_between(
                info[op.stage_id], op.started_at, op.done_at
            ),
        }
        for op in ex.rebuild_log
    ]

    return {
        "paper": PAPER,
        "baseline_s": baseline,
        "tuned_s": tuned,
        "reduction_pct": reduction_pct(baseline, tuned),
        "init_time_s": ex.exe.init_time_s,
        "tuning_latency_avg_s": sum(latencies) / len(latencies) if latencies else 0.0,
        "table2": [r.as_row() for r in ex.state_transfers],
        "rejected": [f"{a.notation()} — {a.reason}" for a in script.rejected()],
        "probe_continuity": continuity,
    }

