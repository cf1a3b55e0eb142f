"""Workload ``sim-paper``: regenerate §6 on the calibrated simulator.

One pass runs every E1–E6 experiment's ``run()`` (Q1/Q2/Q3/Q5/Q7/Q2J/QSHUF,
scripted and auto-tuned). The seed only shuffles the order of the
experiments within a pass: the simulator is seeded, so every pass of every
run must produce the same simulated numbers (the ``paper.*`` fingerprint),
whatever the order. Spark is never started.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from perfbench.measure import Outcome, median, ratio, repeat_within, vm_hwm_mb
from perfbench.probe import Probe

from repro.core import AutoTuner, RuntimeInfoCollector, ScriptExecutor, WhatIfService
from repro.core.filter import TuningRequestFilter
from repro.engine import exec_sim
from repro.engine.exec_sim import SimExecutor
from repro.engine.scheduler import DynamicScheduler
from repro.experiments import (
    autotune,
    elastic_shuffle,
    prediction,
    q2j_switching,
    q3_intrastage,
    q3_intratask,
    table1,
)

EXPERIMENTS = {
    "E1": q3_intratask,
    "E2": q3_intrastage,
    "E3": q2j_switching,
    "E4": elastic_shuffle,
    "E5": prediction,
    "E6": autotune,
}

#: The assertions of ``benchmarks/bench_*.py``, unchanged.
CHECKS = {
    "E1": lambda r: r["reduction_pct"] > 45.0,
    "E2": lambda r: r["q3"]["reduction_pct"] > 60.0,
    "E3": lambda r: len(r["table2"]) == 3 and r["reduction_pct"] > 45.0,
    "E4": lambda r: r["reduction_pct"] > 20.0,
    "E5": lambda r: all(p["abs_error_s"] < 8.0 for p in r["predictions"]),
    "E6": lambda r: r["q2"]["met"] and r["q3"]["met"],
}

#: Set-up as a user pays it: a fresh interpreter imports the experiments
#: and builds the simulated cluster with every query scheduled on it.
_SETUP_CODE = """
import repro.experiments
from repro.engine.exec_sim import SimExecutor
from repro.queries.tpch import QUERIES
for q in QUERIES.values():
    SimExecutor(q.sim_query())
"""
SETUP_REPS = 3

REFERENCE = Path(__file__).with_name("paper_fingerprint.json")


def fingerprint(exp: str, r: dict) -> dict[str, float]:
    """The simulated statistics of one experiment result, by metric name."""
    if exp == "E1":
        fp = {k: r[k] for k in ("baseline_s", "tuned_s", "reduction_pct", "plan_rpc_requests")}
        fp["rejected"] = len(r["script"]) - len(r["script_applied"])
    elif exp == "E2":
        fp = {f"q3.{k}": r["q3"][k] for k in ("baseline_s", "tuned_s", "reduction_pct")}
        fp["q3.rejected"] = len(r["q3"]["rejected"])
        for q, o in r["other_queries"].items():
            fp[f"{q.lower()}.reduction_pct"] = o["reduction_pct"]
    elif exp == "E3":
        fp = {k: r[k] for k in ("baseline_s", "tuned_s", "reduction_pct",
                                "tuning_latency_avg_s")}
        fp["rejected"] = len(r["rejected"])
        for i, row in enumerate(r["table2"], 1):
            fp[f"t2.row{i}.total_s"] = row["Total time"]
            fp[f"t2.row{i}.shuffle_s"] = row["Shuffle time"]
            fp[f"t2.row{i}.build_s"] = row["Build time"]
    elif exp == "E4":
        fp = {k: r[k] for k in ("baseline_s", "tuned_s", "reduction_pct",
                                "switch_latency_avg_s")}
    elif exp == "E5":
        fp = {"total_s": r["total_s"]}
        for p in r["predictions"]:
            fp[f"s{p['stage']}.abs_error_s"] = p["abs_error_s"]
    elif exp == "E6":
        fp = {f"{q}.total_s": r[q]["total_s"] for q in ("q2", "q3")}
        fp["rejected"] = sum(
            not a["accepted"] for q in ("q2", "q3") for a in r[q]["adjustments"]
        )
    else:
        raise KeyError(exp)
    return {f"paper.{exp}.{k}": float(v) for k, v in fp.items()}


def fingerprint_crc(fp: dict[str, float]) -> int:
    return zlib.crc32(json.dumps(sorted(fp.items())).encode())


def reference_drift(fp: dict[str, float]) -> int:
    """Number of fingerprint entries that differ from the committed
    reference (missing and extra entries count too)."""
    ref = json.loads(REFERENCE.read_text())
    return sum(fp.get(k) != ref.get(k) for k in set(fp) | set(ref))


@dataclass
class SimRun:
    """One ``SimExecutor.run`` call as seen from outside."""

    elastic: bool  # a DOP change was applied during the run
    host_s: float
    sim_s: float
    rpc_requests: int
    control_s: float
    rebuilds: int


@dataclass
class PassStats:
    host_s: float = 0.0
    runs: list[SimRun] = field(default_factory=list)
    #: experiment -> its ``paper.*`` statistics, for experiments that ran.
    fingerprint: dict[str, dict[str, float]] = field(default_factory=dict)
    probe: Probe | None = None

    @property
    def sim_s(self) -> float:
        return sum(r.sim_s for r in self.runs)


def _record_runs(runs: list[SimRun]):
    """Replace ``SimExecutor.run`` by a recorder; returns the undo."""
    orig = SimExecutor.run

    def run(ex, *args, **kwargs):
        t0 = perf_counter()
        total = orig(ex, *args, **kwargs)
        host = perf_counter() - t0
        runs.append(SimRun(
            elastic=ex.exe.rpc_requests > ex.exe.init_rpc_requests,
            host_s=host, sim_s=ex.t, rpc_requests=ex.exe.rpc_requests,
            control_s=ex.exe.control_time_s, rebuilds=len(ex.rebuild_log),
        ))
        return total

    SimExecutor.run = run
    return lambda: setattr(SimExecutor, "run", orig)


def _install_probe(p: Probe) -> None:
    """Wrap the public entry points of every simulator-side layer."""
    for attr in ("step", "__init__", "set_stage_dop", "set_task_dop"):
        p.wrap(SimExecutor, attr, f"engine.exec_sim.{attr.strip('_')}")
    # exec_sim binds schedule_query by name at import.
    p.wrap(exec_sim, "schedule_query", "engine.scheduler.schedule_query")
    for attr in ("add_tasks", "remove_tasks", "set_task_dop"):
        p.wrap(DynamicScheduler, attr, f"engine.scheduler.{attr}")

    def count_accepted(decision) -> None:
        p.calls["core.filter.accepted"] += decision.accepted

    p.wrap(TuningRequestFilter, "check", "core.filter.check", on_result=count_accepted)
    p.wrap(WhatIfService, "predict", "core.predictor.predict")
    p.wrap(AutoTuner, "direct", "core.tuner.direct")
    p.wrap(AutoTuner, "monitor", "core.tuner.monitor")
    p.wrap_factory(ScriptExecutor, "controller", "core.script.controller")
    p.wrap(RuntimeInfoCollector, "collect", "core.runtime_info.collect")


def run_pass(order: list[str], oc: Outcome, *, traced: bool) -> PassStats:
    """Run every experiment once, checking each result."""
    ps = PassStats(probe=Probe() if traced else None)
    undo = _record_runs(ps.runs)
    if ps.probe is not None:
        _install_probe(ps.probe)
    try:
        for exp in order:
            oc.attempted += 1
            t0 = perf_counter()
            try:
                res = EXPERIMENTS[exp].run()
            except Exception as exc:  # a raising experiment is a failed operation
                oc.fail(f"{exp} raised {exc!r}")
                continue
            finally:
                ps.host_s += perf_counter() - t0
            try:
                ok = CHECKS[exp](res)
                ps.fingerprint[exp] = fingerprint(exp, res)
            except (KeyError, TypeError, IndexError) as exc:
                ok = False
                oc.errors.append(f"{exp} result malformed: {exc!r}")
            if not ok:
                oc.fail(f"{exp} failed its paper-shape check")
    finally:
        if ps.probe is not None:
            ps.probe.restore()
        undo()
    return ps


def setup_once(root: Path) -> float:
    """Wall seconds for a fresh interpreter to import and build."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, check=True,
                   timeout=120, cwd=root)
    return perf_counter() - t0


def _layer_metrics(traced: list[PassStats]) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}

    def med(f) -> float:
        return median([f(ps) for ps in traced])

    def us(name: str) -> None:
        m[f"{name}_us"] = (med(lambda ps: ps.probe.mean_us(name)), "us")

    def calls(name: str) -> None:
        m[f"{name}_calls"] = (med(lambda ps: ps.probe.calls[name]), "count")

    for name in ("engine.exec_sim.step", "engine.exec_sim.init",
                 "engine.exec_sim.set_stage_dop", "engine.exec_sim.set_task_dop",
                 "engine.scheduler.schedule_query", "engine.scheduler.add_tasks",
                 "engine.scheduler.remove_tasks", "engine.scheduler.set_task_dop",
                 "core.filter.check", "core.predictor.predict", "core.tuner.direct",
                 "core.tuner.monitor", "core.script.controller",
                 "core.runtime_info.collect"):
        us(name)
    for name in ("engine.scheduler.schedule_query", "engine.scheduler.add_tasks",
                 "engine.scheduler.remove_tasks", "engine.scheduler.set_task_dop",
                 "core.predictor.predict", "core.tuner.monitor"):
        calls(name)
    m["engine.exec_sim.steps"] = (med(lambda ps: ps.probe.calls["engine.exec_sim.step"]), "count")
    m["engine.exec_sim.step_share"] = (
        med(lambda ps: ps.probe.secs["engine.exec_sim.step"] / ps.host_s), "ratio")
    m["core.filter.checks"] = (med(lambda ps: ps.probe.calls["core.filter.check"]), "count")
    m["core.filter.accept_ratio"] = (med(lambda ps: ratio(
        ps.probe.calls["core.filter.accepted"], ps.probe.calls["core.filter.check"])), "ratio")
    m["cluster.rpc_requests"] = (med(lambda ps: sum(r.rpc_requests for r in ps.runs)), "count")
    m["cluster.control_s"] = (med(lambda ps: sum(r.control_s for r in ps.runs)), "s")
    m["engine.hashjoin.rebuilds"] = (med(lambda ps: sum(r.rebuilds for r in ps.runs)), "count")
    return m


#: Elastic and fixed-DOP runs simulate queries of different lengths, so
#: each kind is timed per unit of simulated work.
SIM_UNIT_S = 1000.0


def _host_per_sim(ps: PassStats, elastic: bool) -> float:
    """Host seconds per ``SIM_UNIT_S`` simulated seconds, over the
    simulator runs of the given kind in a pass."""
    runs = [r for r in ps.runs if r.elastic == elastic]
    return SIM_UNIT_S * ratio(sum(r.host_s for r in runs), sum(r.sim_s for r in runs))


def run(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    oc = Outcome()
    setup = [setup_once(root) for _ in range(SETUP_REPS)]
    order = list(EXPERIMENTS)
    random.Random(seed).shuffle(order)

    # The first pass fills lazy caches and is not timed; it is checked.
    warm = run_pass(order, oc, traced=False)
    plain: list[PassStats] = []
    traced: list[PassStats] = []

    def once() -> None:
        plain.append(run_pass(order, oc, traced=False))
        if trace:
            traced.append(run_pass(order, oc, traced=True))

    repeat_within(seconds, once)

    # Deterministic simulator: every pass must reproduce the first one.
    for i, ps in enumerate(plain + traced, 1):
        for exp, fp in ps.fingerprint.items():
            if fp != warm.fingerprint.get(exp):
                oc.fail(f"{exp} fingerprint of pass {i} differs from pass 0")
    first = {k: v for fp in warm.fingerprint.values() for k, v in fp.items()}

    oc.attempted += 1
    try:
        t1 = table1.run(sf=0.1)
        if not (len(t1["rows"]) == 8 and t1["measured_total_bytes"] > 0):
            oc.fail("T1 failed its shape check")
    except Exception as exc:
        oc.fail(f"T1 raised {exc!r}")

    secs = {
        "setup_s": median(setup),
        "pass_s_p50": median([ps.host_s for ps in plain]),
        "elastic_s_p50": median([_host_per_sim(ps, True) for ps in plain]),
        "fixed_s_p50": median([_host_per_sim(ps, False) for ps in plain]),
    }
    oc.end_to_end = {k: (v, "s") for k, v in secs.items()}
    oc.end_to_end["elastic_overhead_x"] = (
        ratio(secs["elastic_s_p50"], secs["fixed_s_p50"]), "x")
    oc.end_to_end["peak_rss_mb"] = (vm_hwm_mb(), "MB")
    sim_rate = median([ps.sim_s / ps.host_s for ps in plain])
    crc = fingerprint_crc(first)
    drift = reference_drift(first)
    n_el = sum(r.elastic for r in plain[0].runs)
    oc.report += [
        f"order: {' '.join(order)}; passes: 1 warm-up, {len(plain)} untraced, "
        f"{len(traced)} traced",
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setup)}",
        f"sim_pass_s_p50: {secs['pass_s_p50']:.4f} s (n={len(plain)}; samples "
        + ", ".join(f"{ps.host_s:.3f}" for ps in plain) + ")",
        f"sim_s_per_host_s: {sim_rate:.1f} sim-s/s (n={len(plain)})",
        f"simulator runs per pass: {n_el} elastic, {len(plain[0].runs) - n_el} fixed-DOP; "
        f"host seconds per {SIM_UNIT_S:g} simulated seconds: elastic "
        f"{secs['elastic_s_p50']:.4f}, fixed {secs['fixed_s_p50']:.4f} (n={len(plain)})",
        f"paper fingerprint: crc32={crc} entries={len(first)} "
        f"reference_drift={drift} identical_across_passes="
        f"{all(ps.fingerprint == warm.fingerprint for ps in plain + traced)}",
    ]
    layers: dict[str, tuple[float, str]] = {
        k: (v, "s" if k.endswith("_s") else "pct" if k.endswith("_pct") else "count")
        for k, v in first.items()
    }
    layers["paper.fingerprint_drift"] = (float(drift), "count")
    layers["engine.exec_sim.sim_s_per_host_s"] = (sim_rate, "ratio")
    if traced:
        layers.update(_layer_metrics(traced))
        t_traced = median([ps.host_s for ps in traced])
        layers["trace_overhead_pct"] = (
            (t_traced - secs["pass_s_p50"]) / secs["pass_s_p50"] * 100.0, "pct")
    oc.per_layer = layers
    oc.extra = {"fingerprint": first, "fingerprint_crc": crc,
                "setup_samples": setup, "pass_s": [ps.host_s for ps in plain]}
    return oc
