"""IQRE on the real Spark runtime: micro-batch execution with mid-query
DOP changes.

The paper contrasts Accordion with Spark's AQE: "AQE can only adjust
parallelism for a stage after the completion of the previous stage and
does not allow for DOP modifications during data processing" (§4.2.1).
This module demonstrates the closest legal analogue inside Spark's
execution model (per the reproduction brief): a query is executed as a
sequence of micro-batches over hash-partitioned slices of its probe
table — the Spark equivalent of Accordion's split-at-a-time table scan —
and between batches the driver sets ``spark.sql.shuffle.partitions`` to the
batch's scheduled DOP. Partial aggregates are merged at the end, mirroring
Accordion's two-phase aggregation model (§4.1).

The schedule is requested, not yet enforced or observed. Under Spark's AQE
defaults, partition coalescing overrides ``spark.sql.shuffle.partitions``
(ROADMAP "Measured": asking for 32 gave no 32-task stage), so a batch's
shuffles may run at a lower DOP than ``batch_dops`` records. And
``batch_partitions`` counts each partial's output partitions (1 for every
batch of Q1, Q2J and Q3), not the DOP its shuffles executed at. ROADMAP
item 1 makes the DOP take effect and reads the executed one.

A query runs here if its ``QueryDef`` names a ``probe_table``; each batch
runs the query's own ``partial`` and the union goes through its ``merge``,
the same two functions its single-shot Spark form composes.
``script_to_dop_schedule`` turns a paper-notation tuning script
("AP S1,2,4 @ 10" …) into such a per-batch DOP schedule.

Every runner returns a DataFrame that tests check against the DuckDB
oracle — changing the DOP mid-query must never change the answer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.core.script import AC, AP, RP, ScriptAction
from repro.queries.tpch import QUERIES

#: probe table -> the column its rows are hashed on into batches.
BATCH_KEYS = {"lineitem": "l_orderkey", "orders": "o_orderkey"}


@dataclass
class MicrobatchRun:
    result: DataFrame
    n_batches: int
    #: ``spark.sql.shuffle.partitions`` set for each batch (AQE may coalesce below it).
    batch_dops: list[int] = field(default_factory=list)
    #: output partition count of each partial (post-AQE), not its executed DOP.
    batch_partitions: list[int] = field(default_factory=list)
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


def run_microbatch(
    spark: SparkSession,
    query: str,
    tables: dict[str, DataFrame],
    *,
    n_batches: int = 4,
    dop_schedule: Callable[[int], int] | list[int] | None = None,
) -> MicrobatchRun:
    """Run ``query`` in ``n_batches`` micro-batches, retuning the shuffle
    DOP before each batch (the intra-query runtime elasticity analogue).

    ``dop_schedule`` maps batch index -> shuffle partition count; default
    doubles the DOP every batch starting from 2 (start small, scale up —
    the paper's headline usage pattern). A query without a probe table,
    a table it reads missing from ``tables``, ``n_batches < 1``, an empty
    ``dop_schedule`` list or a scheduled DOP below 1 raises ``ValueError``.

    The inputs are read once per run: the probe and every build table are
    materialized once (the build side is the §4.5 intermediate data cache —
    a DOP change reshuffles the cached rows and rescans nothing), each
    batch filters its hash slice of the stored probe, and each batch's
    partial is materialized under that batch's DOP. The probe and build
    copies are freed before returning; the partials stay for ``result``,
    which merges their union, until ``MicrobatchRun.release()``.
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

    probe = qdef.probe_table
    old_dop = spark.conf.get("spark.sql.shuffle.partitions")
    run = MicrobatchRun(result=None, n_batches=n_batches)  # type: ignore[arg-type]
    batch_of = F.pmod(F.abs(F.hash(F.col(BATCH_KEYS[probe]))), F.lit(n_batches))
    inputs: dict[str, DataFrame] = {}
    try:
        for t in qdef.tables:
            # Stored once, so no batch rescans a source or re-plans its
            # lineage (a LocalRelation embeds every row in the plan). Stored
            # as they are: a column added to a LocalRelation is computed row
            # by row on the driver while the query is planned.
            inputs[t] = tables[t].localCheckpoint(eager=True)
        for i in range(n_batches):
            dop = int(schedule(i))
            if dop < 1:
                raise ValueError(f"shuffle DOP must be >= 1, got {dop} for batch {i}")
            spark.conf.set("spark.sql.shuffle.partitions", str(dop))
            run.batch_dops.append(dop)
            batch = inputs[probe].where(batch_of == i)
            # Materialize under the current DOP — this is the point where
            # the runtime parallelism choice actually takes effect.
            part = qdef.partial({**inputs, probe: batch}).localCheckpoint(eager=True)
            run.partials.append(part)
            run.batch_partitions.append(part.rdd.getNumPartitions())
    except BaseException:
        run.release()
        raise
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old_dop)
        for df in inputs.values():
            _release(df)
    run.result = qdef.merge(reduce(DataFrame.unionByName, run.partials))
    return run
