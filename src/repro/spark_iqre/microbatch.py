"""IQRE on the real Spark runtime: micro-batch execution with mid-query
DOP changes.

The paper contrasts Accordion with Spark's AQE: "AQE can only adjust
parallelism for a stage after the completion of the previous stage and
does not allow for DOP modifications during data processing" (§4.2.1).
This module demonstrates the closest legal analogue inside Spark's
execution model (per the reproduction brief): a query is executed as a
sequence of micro-batches over hash slices of its probe table (the Spark
equivalent of Accordion's split-at-a-time table scan), and each batch
carries its own DOP in its plan: it repartitions its slice on the query's
``probe_key`` into that many partitions. Partial aggregates are merged at
the end, mirroring Accordion's two-phase aggregation model (§4.1).

The DOP takes effect and is observed. AQE never coalesces a
``repartition(n, col)``, so the stage fed by the probe (the stage the
paper's scripts tune, "AP S1…") runs at exactly the batch's DOP; the
session's ``spark.sql.shuffle.partitions`` is held at 1 for the run,
because Spark raises a plan-level DOP to it. ``batch_executed_dops``
reads each batch's task count of that stage back from Spark's status
tracker. Each ``partial`` runs the hash joins its stage tree names: Q3
probes two broadcast builds, so its joins and partial aggregate keep the
probe's partitioning and every stage of a Q3 batch that reads a shuffle
runs at the batch's DOP; Q2J and QSHUF shuffle their build side to the
probe's partitioning for a shuffled hash join. Only the exchange into a
partial aggregate that does not group by the probe key (Q1's flags, a
global count) runs at 1 task, at the held conf. The merge reads all
partials in one task, so it shuffles nothing.

The data keeps flowing while the DOP changes: up to ``IN_FLIGHT`` batches
run at once, so the next batch scans while the previous one shuffles, as
in Drizzle's group scheduling (Venkataraman et al., SOSP 2017).

A query runs here if its ``QueryDef`` names a ``probe_table``; each batch
runs the query's own ``partial`` and the union goes through its ``merge``,
the same two functions its single-shot Spark form composes.
``script_to_dop_schedule`` turns a paper-notation tuning script
("AP S1,2,4 @ 10" …) into such a per-batch DOP schedule.

Every runner returns a DataFrame that tests check against the DuckDB
oracle — changing the DOP mid-query must never change the answer.
"""
from __future__ import annotations

import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import pyspark.sql.functions as F
from pyspark import SparkContext, inheritable_thread_target
from pyspark.sql import DataFrame, SparkSession

from repro.core.script import AC, AP, RP, ScriptAction
from repro.queries.tpch import QUERIES, QueryDef

#: Batches running at once. With 2, batch i+1 scans its slice while batch
#: i shuffles and joins; 3 measured slower on ``local[4]`` (perfbench
#: ``spark-join-iqre``, 5 of 5 pairs).
IN_FLIGHT = 2
_PARTITIONS = "spark.sql.shuffle.partitions"


@dataclass
class MicrobatchRun:
    result: DataFrame
    n_batches: int
    #: the DOP each batch's plan asked for, from the schedule.
    batch_dops: list[int] = field(default_factory=list)
    #: the DOP each batch ran at, read from Spark: the task count of the
    #: stage fed by the batch's repartition. AQE skips that stage when the
    #: batch's slice is empty; the value is then that of the next stage
    #: that reads a shuffle (1, at the held conf), or 0 if none ran.
    batch_executed_dops: list[int] = field(default_factory=list)
    #: the stored per-batch partials that ``result`` reads.
    partials: list[DataFrame] = field(default_factory=list, repr=False)

    def release(self) -> None:
        """Free the stored partials. Call it once done with ``result``,
        which cannot be read afterwards."""
        for part in self.partials:
            _release(part)
        self.partials.clear()


def script_to_dop_schedule(actions: list[ScriptAction], *, initial_dop: int = 2) -> list[int]:
    """Derive a per-batch shuffle-DOP schedule from a tuning script.

    One batch runs at the initial DOP, then one batch per scripted
    parallelism change, in time order, at that action's target DOP — the
    micro-batch analogue of "the adjustment takes effect from this point
    on". An action targeting a DOP below 1 is dropped, as the simulator's
    request filter rejects it.
    """
    return [initial_dop] + [
        a.b for a in sorted(actions, key=lambda a: a.t) if a.kind in (AC, AP, RP) and a.b >= 1
    ]


def _release(df: DataFrame) -> None:
    """Free the blocks of a ``localCheckpoint``ed DataFrame. Spark has no
    public call for this; the blocks belong to the RDD under its
    ``LogicalRDD``."""
    df._jdf.queryExecution().analyzed().rdd().unpersist(True)


def _run_batch(sc: SparkContext, qdef: QueryDef, tables: dict[str, DataFrame],
               tag: str) -> DataFrame:
    """Store one batch's partial; its jobs carry ``tag``. Job tags are
    thread-local, so the caller's job group and tags stay as they are."""
    sc.addJobTag(tag)
    return qdef.partial(tables).localCheckpoint(eager=True)


def _executed_dop(sc: SparkContext, tag: str) -> int:
    """Task count of the first stage of ``tag``'s jobs that read a shuffle:
    the stage fed by the batch's repartition. AQE runs each query stage as
    its own job, and the stage that ran is the job's last; a job of one
    stage read only stored inputs. PySpark's ``StatusTracker`` does not
    wrap ``getJobIdsForTag``, so the JVM tracker is asked."""
    tracker = sc._jsc.statusTracker()
    for job in sorted(sc._jsc.sc().statusTracker().getJobIdsForTag(tag)):
        stages = sorted(tracker.getJobInfo(job).stageIds())
        if len(stages) > 1:
            return tracker.getStageInfo(stages[-1]).numTasks()
    return 0


def run_microbatch(
    spark: SparkSession,
    query: str,
    tables: dict[str, DataFrame],
    *,
    n_batches: int = 4,
    dop_schedule: Callable[[int], int] | list[int] | None = None,
) -> MicrobatchRun:
    """Run ``query`` in ``n_batches`` micro-batches, each at its own
    shuffle DOP (the intra-query runtime elasticity analogue).

    ``dop_schedule`` maps batch index -> DOP; default doubles the DOP every
    batch starting from 2 (start small, scale up — the paper's headline
    usage pattern). A callable is called once per batch, in order, on the
    caller's thread, when that batch is submitted, so it may choose each
    DOP from what it sees at run time. A query without a probe table, a
    table it reads missing from ``tables``, ``n_batches < 1``, an empty
    ``dop_schedule`` list or a scheduled DOP below 1 raises ``ValueError``.

    The inputs are read once per run: the probe and every build table are
    materialized once, concurrently (the build side is the §4.5
    intermediate data cache — a DOP change reshuffles or rebroadcasts the
    cached rows and rescans nothing). Batch *i* takes its ``xxhash64`` slice of the stored
    probe and repartitions it on ``probe_key`` into its DOP. The slice hash
    differs from the Murmur3 hash Spark partitions with, so a slice spreads
    over all of its partitions. Up to ``IN_FLIGHT`` batches run at once,
    each on a worker thread that inherits the caller's job group and
    tags. Each batch's partial is materialized. The probe and build copies
    are freed before returning; the partials stay for ``result``, which
    merges their union, until ``MicrobatchRun.release()``. If a batch or
    the schedule raises, the batches in flight are waited for, every copy
    and partial is freed, and the first error is raised.
    """
    qdef = QUERIES.get(query)
    if qdef is None or qdef.probe_table is None:
        raise ValueError(f"query {query!r} has no micro-batch form; these do: "
                         f"{sorted(q for q, d in QUERIES.items() if d.probe_table)}")
    missing = [t for t in qdef.tables if t not in tables]
    if missing:
        raise ValueError(f"query {query!r} reads tables missing from `tables`: {missing}")
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    if dop_schedule is None:
        schedule: Callable[[int], int] = lambda i: 2 << i  # noqa: E731
    elif isinstance(dop_schedule, list):
        if not dop_schedule:
            raise ValueError("dop_schedule is an empty list; give at least one DOP")
        sched_list = dop_schedule
        schedule = lambda i: sched_list[min(i, len(sched_list) - 1)]  # noqa: E731
    else:
        schedule = dop_schedule

    probe, key = qdef.probe_table, qdef.probe_key
    sc = spark.sparkContext
    run = MicrobatchRun(result=None, n_batches=n_batches)  # type: ignore[arg-type]
    slice_of = F.pmod(F.xxhash64(F.col(key)), F.lit(n_batches))
    tags = [f"microbatch-{uuid.uuid4().hex}-{i}" for i in range(n_batches)]
    stored: dict[str, Future] = {}
    batches: list[Future] = []
    old_dop = spark.conf.get(_PARTITIONS)
    # Spark runs a plan-level DOP at max(DOP, this conf); 1 raises none.
    spark.conf.set(_PARTITIONS, "1")
    with ThreadPoolExecutor(max_workers=max(IN_FLIGHT, len(qdef.tables))) as pool:

        def submit(fn: Callable[..., DataFrame], *args) -> Future:
            # Wrapped per call: each task gets its own copy of the caller's
            # local properties (job group, tags), taken now.
            return pool.submit(inheritable_thread_target(spark)(fn), *args)

        try:
            # Stored once, so no batch rescans a source or re-plans its
            # lineage (a LocalRelation embeds every row in the plan). Stored
            # as they are: a column added to a LocalRelation is computed row
            # by row on the driver while the query is planned.
            stored = {t: submit(tables[t].localCheckpoint, True) for t in qdef.tables}
            inputs = {t: f.result() for t, f in stored.items()}
            for i in range(n_batches):
                if i >= IN_FLIGHT:
                    batches[i - IN_FLIGHT].result()  # wait for a free slot
                dop = int(schedule(i))
                if dop < 1:
                    raise ValueError(f"shuffle DOP must be >= 1, got {dop} for batch {i}")
                run.batch_dops.append(dop)
                batch = inputs[probe].where(slice_of == i).repartition(dop, key)
                batches.append(submit(_run_batch, sc, qdef, {**inputs, probe: batch}, tags[i]))
            run.partials = [f.result() for f in batches]
            for df in inputs.values():
                _release(df)
            # The status store is fed by the listener bus; let it catch up.
            sc._jsc.sc().listenerBus().waitUntilEmpty()
            run.batch_executed_dops = [_executed_dop(sc, t) for t in tags]
            # One task reads every partial: a partial keeps its batch's
            # partitions (Q3's, its DOP), and the merge would otherwise
            # shuffle each of them at the restored conf.
            run.result = qdef.merge(reduce(DataFrame.unionByName, run.partials).coalesce(1))
        except BaseException:
            for f in [*stored.values(), *batches]:
                if f.exception() is None:  # waits for a batch in flight
                    _release(f.result())
            run.partials.clear()
            raise
        finally:
            spark.conf.set(_PARTITIONS, old_dop)
    return run
