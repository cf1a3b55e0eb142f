"""Workload ``spark-join-iqre``: the real Spark plane.

Q2J and Q3 each run single-shot (``QueryDef.spark_impl(...).collect()``)
and as 4-batch micro-batch IQRE (``run_microbatch`` through
``result.collect()``), in rounds, on TPC-H-lite data at SF 0.1 generated
by the public ``synth_data`` generators with per-table seeds derived from
the run's seed. Every result is checked against the DuckDB oracle outside
the timed region. The first execution of each query in each mode is
warm-up, on SF 0.01 tables of the same seed.

One process drives the load; Spark runs in ``local[N]`` with N = min(4,
cores available), never ``local[*]``.
"""
from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from perfbench.eventlog import GroupStats, group_stats, read_events
from perfbench.measure import (
    Outcome,
    mean_of_medians,
    median,
    ratio,
    repeat_within,
    vm_hwm_mb,
)

SF = 0.1
MAX_CORES = 4
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 64
GEN_REPS = 3
#: Scale of the warm-up tables: the warm-up runs the timed plans, DOP
#: schedules included, on smaller data of the same seed.
WARM_SF = 0.01
#: Session starts timed per run: the run's own, plus fresh interpreters.
SESSION_REPS = 3

#: query -> shuffle DOP of each micro-batch.
SCHEDULES = {"Q2J": [4, 8, 16, 32], "Q3": [4, 8, 16, 32]}

#: A fresh interpreter does what the run does before its SparkSession is
#: ready, then stops the session and its JVM.
_SESSION_CODE = """
from time import perf_counter
t0 = perf_counter()
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from perfbench import spark_plane
import repro.queries.tpch
spark = spark_plane.start_session(Path(sys.argv[3]), int(sys.argv[4]))
print(perf_counter() - t0)
spark_plane.shutdown(spark)
"""


def spark_cores() -> int:
    return min(MAX_CORES, len(os.sched_getaffinity(0)))


def table_seed(seed: int, table: str) -> int:
    """Per-table generator seed derived from the run's seed."""
    return zlib.crc32(f"{seed}/{table}".encode())


class _Recorder:
    """Stands in for the SparkSession a ``synth_data`` generator is handed:
    keeps the pandas frame it builds (the oracle's input) and, given a
    session, hands back the Spark DataFrame as the generator would."""

    def __init__(self, spark=None) -> None:
        self.spark = spark
        self.pdf = None

    def createDataFrame(self, pdf):  # noqa: N802 - SparkSession's name
        self.pdf = pdf
        return pdf if self.spark is None else self.spark.createDataFrame(pdf)


def generate(names: list[str], seed: int, spark=None, *, sf: float = SF
             ) -> tuple[dict, dict, dict[str, float]]:
    """(Spark tables, pandas tables, seconds per table). Without a session
    only the pandas tables are built."""
    from repro import synth_data

    dfs, pdfs, secs = {}, {}, {}
    for name in names:
        rec = _Recorder(spark)
        t0 = perf_counter()
        dfs[name] = synth_data.TPCH_TABLES[name](rec, sf=sf, seed=table_seed(seed, name))
        secs[name] = perf_counter() - t0
        pdfs[name] = rec.pdf
    return dfs, pdfs, secs


def start_session(out: Path, cores: int, event_log: Path | None = None):
    """A local SparkSession whose scratch files stay under ``out``. The
    first call launches the JVM; later calls (after ``stop()``) reuse it."""
    local = out / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # No JVM writes /tmp/hsperfdata_*: everything stays under ``out``.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={out / 'tmp'}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(java_opts)} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.master(f"local[{cores}]").appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(local))
        .config("spark.sql.warehouse.dir", str(out / "spark-warehouse"))
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.eventLog.enabled", str(event_log is not None).lower())
    )
    if event_log is not None:
        event_log.mkdir(parents=True, exist_ok=True)
        b = b.config("spark.eventLog.dir", event_log.as_uri()).config(
            "spark.eventLog.compress", "false")
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_pid() -> int | None:
    from pyspark import SparkContext

    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None)
    return proc.pid if proc is not None else None


def shutdown(spark) -> None:
    """Stop the session and the JVM, and wait for the JVM to exit."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@dataclass
class Samples:
    """Timings of one phase (untraced or traced), per query."""

    single_s: dict[str, list[float]] = field(default_factory=dict)
    micro_s: dict[str, list[float]] = field(default_factory=dict)
    partials_s: dict[str, list[float]] = field(default_factory=dict)
    merge_s: dict[str, list[float]] = field(default_factory=dict)
    batch_s: list[float] = field(default_factory=list)
    gap_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    oracle_s: list[float] = field(default_factory=list)
    groups: list[tuple[str, str, str]] = field(default_factory=list)  # (mode, query, group)


class Runner:
    def __init__(self, spark, tables: dict, pdfs: dict, oc: Outcome) -> None:
        from repro.queries.tpch import QUERIES

        self.spark = spark
        self.schedules = SCHEDULES
        self.qdefs = {q: QUERIES[q] for q in self.schedules}
        self.tables = tables
        self.pdfs = pdfs
        self.oc = oc

    def single(self, q: str):
        qdef = self.qdefs[q]
        t0 = perf_counter()
        df = qdef.spark_impl(self.spark, {t: self.tables[t] for t in qdef.tables})
        rows = df.collect()
        return perf_counter() - t0, rows, df.schema

    def micro(self, q: str, schedule: list[int]):
        from repro.spark_iqre import run_microbatch

        starts: list[float] = []

        def dop(i: int) -> int:
            starts.append(perf_counter())
            return schedule[i]

        t0 = perf_counter()
        run = run_microbatch(self.spark, q, self.tables, n_batches=len(schedule),
                             dop_schedule=dop)
        t1 = perf_counter()
        rows = run.result.collect()
        t2 = perf_counter()
        if run.batch_dops != schedule:
            raise AssertionError(f"{q}: batch DOPs {run.batch_dops} != schedule {schedule}")
        return t1 - t0, t2 - t1, starts + [t1], rows, run.result.schema

    def check(self, q: str, mode: str, rows, schema, s: Samples) -> None:
        """DuckDB oracle plus the C1 shape check; outside the timed region."""
        import pandas as pd

        from repro.oracle import assert_equivalent

        t0 = perf_counter()
        try:
            # Through pandas, so Spark converts with Arrow and needs no
            # Python workers.
            pdf = pd.DataFrame.from_records([tuple(r) for r in rows], columns=schema.names)
            got = self.spark.createDataFrame(pdf, schema=schema)
            qdef = self.qdefs[q]
            assert_equivalent(got, qdef.duckdb_sql,
                              **{t: self.pdfs[t] for t in qdef.tables})
            if q == "Q2J" and not rows[0]["cnt"] > 0:
                raise AssertionError("Q2J count is not positive")
        except Exception as exc:
            self.oc.fail(f"{q} {mode} result: {exc!r}"[:300])
        s.oracle_s.append(perf_counter() - t0)

    def warm_up(self) -> None:
        """First execution of every query, single-shot and as micro-batch
        with its full DOP schedule; untimed. Spark compiles and caches the
        same code whatever the table size, so the runner may hold smaller
        tables than the timed runs."""
        for q, schedule in self.schedules.items():
            self.single(q)
            self.micro(q, schedule)

    def one_round(self, s: Samples, tag: str | None) -> None:
        sc = self.spark.sparkContext
        round_s = 0.0
        for q, schedule in self.schedules.items():
            for mode in ("single", "micro"):
                group = f"{tag}:{mode}:{q}:{len(s.round_s)}" if tag else None
                if group:
                    sc.setJobGroup(group, f"perfbench {mode} {q}")
                self.oc.attempted += 1
                try:
                    if mode == "single":
                        secs, rows, schema = self.single(q)
                        s.single_s.setdefault(q, []).append(secs)
                    else:
                        part, merge, stamps, rows, schema = self.micro(q, schedule)
                        secs = part + merge
                        s.micro_s.setdefault(q, []).append(secs)
                        s.partials_s.setdefault(q, []).append(part)
                        s.merge_s.setdefault(q, []).append(merge)
                        s.gap_s += [b - a for a, b in zip(stamps, stamps[1:-1])]
                        s.batch_s += [b - a for a, b in zip(stamps, stamps[1:])]
                except Exception as exc:
                    self.oc.fail(f"{q} {mode} raised {exc!r}"[:300])
                    continue
                round_s += secs
                if group:
                    s.groups.append((mode, q, group))
                    sc.setJobGroup(f"{tag}:oracle", "perfbench oracle")
                self.check(q, mode, rows, schema, s)
        s.round_s.append(round_s)


def _spark_layers(groups: list[tuple[str, str, str]], stats: dict[str, GroupStats]
                  ) -> dict[str, tuple[float, str]]:
    by_mode: dict[str, dict[str, list[GroupStats]]] = {"single": {}, "micro": {}}
    for mode, q, g in groups:
        by_mode[mode].setdefault(q, []).append(stats.get(g, GroupStats()))

    def per_exec(mode: str, attr: str) -> float:
        return mean_of_medians({q: [getattr(s, attr) for s in v]
                                for q, v in by_mode[mode].items()})

    units = {"jobs": "count", "stages": "count", "tasks": "count",
             "failed_tasks": "count", "shuffle_write_bytes": "bytes",
             "shuffle_read_records": "count", "executor_run_s": "s",
             "executor_cpu_s": "s", "gc_s": "s"}
    m = {f"spark.{k}": (per_exec("micro", k), u) for k, u in units.items()}
    for k in ("jobs", "tasks", "shuffle_write_bytes", "executor_run_s"):
        m[f"spark.single.{k}"] = (per_exec("single", k), units[k])
    m["spark.shuffle_x"] = (ratio(per_exec("micro", "shuffle_write_bytes"),
                                  per_exec("single", "shuffle_write_bytes")), "ratio")
    return m


def session_start_once(out: Path, cores: int) -> float:
    """Seconds for a fresh interpreter to import and get a SparkSession
    ready; its JVM has exited when this returns."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _SESSION_CODE, str(root / "src"), str(root), str(out),
         str(cores)],
        env=dict(os.environ), capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def run(out: Path, seed: int, seconds: float, trace: bool, t_start: float) -> Outcome:
    from repro.queries.tpch import QUERIES

    oc = Outcome()
    names = sorted({t for q in SCHEDULES for t in QUERIES[q].tables})
    cores = spark_cores()
    event_log = out / "eventlog" / f"seed{seed}" if trace else None
    if event_log is not None:
        shutil.rmtree(event_log, ignore_errors=True)

    spark = start_session(out, cores)
    session_s = perf_counter() - t_start
    try:
        gen_s, gen_tables = [], {n: [] for n in names}
        for _ in range(1 if trace else GEN_REPS):
            t0 = perf_counter()
            tables, pdfs, secs = generate(names, seed, spark)
            gen_s.append(perf_counter() - t0)
            for n, v in secs.items():
                gen_tables[n].append(v)
        t0 = perf_counter()
        warm_tables, warm_pdfs, _ = generate(names, seed, spark, sf=WARM_SF)
        Runner(spark, warm_tables, warm_pdfs, oc).warm_up()
        warmup_s = perf_counter() - t0
        runner = Runner(spark, tables, pdfs, oc)

        plain = Samples()
        t0 = perf_counter()
        repeat_within(seconds, lambda: runner.one_round(plain, None))
        phases = {"session": session_s, "generate": sum(gen_s), "warm_up": warmup_s,
                  "rounds": perf_counter() - t0}
        traced = Samples()
        if trace:
            t0 = perf_counter()
            # The traced phase runs on a fresh SparkContext with the event
            # log on and every query tagged. The JVM, its JIT and Spark's
            # code-generation cache stay warm, so it needs no warm-up.
            spark.stop()
            spark = start_session(out, cores, event_log)
            tables, pdfs, _ = generate(names, seed, spark)
            runner = Runner(spark, tables, pdfs, oc)
            repeat_within(seconds, lambda: runner.one_round(traced, "t"))
            phases["traced_phase"] = perf_counter() - t0
        pid = jvm_pid()
        peak = vm_hwm_mb() + (vm_hwm_mb(pid) if pid else 0.0)
    finally:
        shutdown(spark)
    # One JVM at a time: the fresh interpreters start theirs after the
    # run's own has exited. The traced run does not report setup_s.
    t0 = perf_counter()
    sessions = [session_s] + [session_start_once(out, cores)
                              for _ in range(0 if trace else SESSION_REPS - 1)]
    phases["session_reps"] = perf_counter() - t0

    single = mean_of_medians(plain.single_s)
    micro = mean_of_medians(plain.micro_s)
    oc.end_to_end = {
        "setup_s": (median(sessions) + median(gen_s), "s"),
        "pass_s_p50": (median(plain.round_s), "s"),
        "elastic_s_p50": (micro, "s"),
        "fixed_s_p50": (single, "s"),
        "elastic_overhead_x": (ratio(micro, single), "x"),
        "peak_rss_mb": (peak, "MB"),
    }
    n = {q: len(v) for q, v in plain.micro_s.items()}
    dop_switch = median(plain.gap_s)
    oc.report += [
        f"spark master local[{cores}], driver memory {DRIVER_MEMORY}, SF {SF}, "
        f"tables {', '.join(names)}; rounds: {len(plain.round_s)} untraced, "
        f"{len(traced.round_s)} traced",
        f"setup_s = median session start {median(sessions):.3f} s (n={len(sessions)}: "
        + ", ".join(f"{v:.3f}" for v in sessions) + ") + median data generation "
        f"{median(gen_s):.3f} s (n={len(gen_s)}); warm-up at SF {WARM_SF} {warmup_s:.3f} s "
        "(untimed)",
        f"one round fits in --seconds {seconds:g} only once, so each query's "
        "timing below is its single warm sample (n=1) unless n says otherwise",
        f"microbatch_s_p50: {micro:.4f} s (per query: "
        + ", ".join(f"{q} {median(v):.3f} s n={len(v)}" for q, v in plain.micro_s.items()) + ")",
        f"single_shot_s_p50: {single:.4f} s (per query: "
        + ", ".join(f"{q} {median(v):.3f} s n={len(v)}" for q, v in plain.single_s.items()) + ")",
        f"microbatch_overhead_x: {micro / single:.3f} (= {micro:.4f} s / {single:.4f} s)",
        f"dop_switch_s_p50: {dop_switch:.4f} s (n={len(plain.gap_s)} batch gaps)",
        f"DOP schedules: {runner.schedules}; micro-batch samples {n}",
        "phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()),
    ]
    layers: dict[str, tuple[float, str]] = {
        "spark_iqre.microbatch.dop_switch_s": (dop_switch, "s"),
        "synth_data.gen_s": (median(gen_s), "s"),
        **{f"synth_data.{n}.gen_s": (median(v), "s") for n, v in gen_tables.items()},
    }
    if trace:
        layers.update({
            "spark_iqre.microbatch.partials_s": (mean_of_medians(traced.partials_s), "s"),
            "spark_iqre.microbatch.merge_s": (mean_of_medians(traced.merge_s), "s"),
            "spark_iqre.microbatch.batch_s": (median(traced.batch_s), "s"),
            "oracle.check_s": (median(traced.oracle_s), "s"),
            "trace_overhead_pct": ((median(traced.round_s) - median(plain.round_s))
                                   / median(plain.round_s) * 100.0, "pct"),
        })
        layers.update(_spark_layers(traced.groups, group_stats(read_events(event_log))))
    oc.per_layer = layers
    oc.extra = {"cores": cores, "session_s": sessions, "gen_s": gen_s,
                "warmup_s": warmup_s, "plain": plain.__dict__, "traced": traced.__dict__}
    return oc
