"""Experiment E4 — §6.4.2 elastic shuffle stage (QSHUF).

The orders table is stored on only two nodes, deliberately making the
scan-side shuffle the query bottleneck:

* baseline (S1 stage DOP 10, task DOP 1): 45.22 s in the paper;
* a shuffle stage (Fig. 27) is inserted downstream of the orders scan and
  its parallelism raised at runtime; S1/S3 throughput grows with each
  step until the bottleneck shifts from the shuffle stage to the join —
  further increases stop helping;
* paper tuned result: 30.21 s, a 33.19 % reduction; query init 232 ms;
  parallelism switching overhead 12 ms.

Bottleneck localization (§5.1) is exercised for real here: before tuning
the scan stage is network/shuffle-bound, afterwards the join stage is the
computational bottleneck.
"""
from __future__ import annotations

from repro.core import AutoTuner, RuntimeInfoCollector, ScriptExecutor, rate_at
from repro.core.bottleneck import computational_bottlenecks, network_bottlenecks
from repro.engine.exec_sim import SimExecutor
from repro.experiments.report import reduction_pct
from repro.queries.tpch import qshuf_sim

PAPER = {
    "baseline_s": 45.22,
    "tuned_s": 30.21,
    "reduction_pct": 33.19,
    "init_time_s": 0.232,
    "switch_latency_s": 0.012,
}

SCRIPT = """
AP S2,1,2 @ 3
AP S2,2,3 @ 6
AP S2,3,4 @ 9
AP S2,4,5 @ 12
"""


def run() -> dict:
    baseline_ex = SimExecutor(qshuf_sim(), stage_dop=2, task_dop=1)
    baseline_collector = RuntimeInfoCollector(baseline_ex)
    baseline_mid: list = []

    def baseline_snap(t, e):
        # one mid-run snapshot, while the scan's shuffle executors are the
        # active bottleneck (§5.1's NIC/shuffle check needs a live query)
        if not baseline_mid and t >= 20.0:
            baseline_mid.append(network_bottlenecks(baseline_collector.collect()))

    baseline = baseline_ex.run(controllers=[baseline_snap])
    baseline_network = baseline_mid[0] if baseline_mid else []

    ex = SimExecutor(qshuf_sim(with_shuffle_stage=True), stage_dop=2, task_dop=1)
    tuner = AutoTuner(ex)
    script = ScriptExecutor.from_text(SCRIPT)
    collector = RuntimeInfoCollector(ex)
    snapshots = []

    def snapshot_ctrl(t, e):
        if t and abs(t - round(t / 5.0) * 5.0) < e.dt / 2 and t > 1:
            snapshots.append(collector.collect())

    tuned = ex.run(controllers=[script.controller(tuner), snapshot_ctrl])

    # Bottleneck shift: compare first and last mid-run snapshots.
    shift = {}
    if len(snapshots) >= 2:
        shift = {
            "early_computational": computational_bottlenecks(snapshots[0], snapshots[1]),
            "late_computational": computational_bottlenecks(snapshots[-2], snapshots[-1]),
        }
    # Throughput of the join (S1) at each shuffle-stage DOP step.
    s1 = collector.collect()[1]
    steps = {d: rate_at(s1, t) / 1e6 for d, t in ((1, 2.5), (2, 5.5), (3, 8.5), (4, 11.5), (5, 16.0))}

    applied = [e for e in tuner.log if e.accepted]
    return {
        "paper": PAPER,
        "baseline_s": baseline,
        "baseline_network_bottlenecks": baseline_network,
        "tuned_s": tuned,
        "reduction_pct": reduction_pct(baseline, tuned),
        "init_time_s": ex.exe.init_time_s,
        "switch_latency_avg_s": (
            sum(e.latency_s for e in applied) / len(applied) if applied else 0.0
        ),
        "s1_throughput_by_shuffle_dop_mb_s": steps,
        "bottleneck_shift": shift,
    }
