"""IQRE on the real Spark runtime: micro-batch execution with mid-query
DOP changes.

The paper contrasts Accordion with Spark's AQE: "AQE can only adjust
parallelism for a stage after the completion of the previous stage and
does not allow for DOP modifications during data processing" (§4.2.1).
This module demonstrates the closest legal analogue inside Spark's
execution model (per the reproduction brief): a query is executed as a
sequence of micro-batches over hash-partitioned slices of its probe
table — the Spark equivalent of Accordion's split-at-a-time table scan —
and between batches the driver retunes ``spark.sql.shuffle.partitions``
(the shuffle DOP of every subsequent Spark job inside the same logical
query). Partial aggregates are merged at the end, mirroring Accordion's
two-phase aggregation model (§4.1).

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
    #: shuffle DOP in force while each batch executed.
    batch_dops: list[int] = field(default_factory=list)
    #: observed partition counts of each partial (post-AQE).
    batch_partitions: list[int] = field(default_factory=list)


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
    ``n_batches < 1`` or a scheduled DOP below 1 raises ``ValueError``.
    """
    qdef = QUERIES.get(query)
    if qdef is None or qdef.probe_table is None:
        raise ValueError(f"query {query!r} has no micro-batch form; these do: "
                         f"{sorted(q for q, d in QUERIES.items() if d.probe_table)}")
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    if dop_schedule is None:
        schedule: Callable[[int], int] = lambda i: 2 << i  # noqa: E731
    elif isinstance(dop_schedule, list):
        sched_list = dop_schedule
        schedule = lambda i: sched_list[min(i, len(sched_list) - 1)]  # noqa: E731
    else:
        schedule = dop_schedule

    probe = qdef.probe_table
    batched = tables[probe].withColumn(
        "__batch", F.pmod(F.abs(F.hash(F.col(BATCH_KEYS[probe]))), F.lit(n_batches))
    )
    old_dop = spark.conf.get("spark.sql.shuffle.partitions")
    run = MicrobatchRun(result=None, n_batches=n_batches)  # type: ignore[arg-type]
    partial_pdfs = []
    schema = None
    try:
        for i in range(n_batches):
            dop = int(schedule(i))
            if dop < 1:
                raise ValueError(f"shuffle DOP must be >= 1, got {dop} for batch {i}")
            spark.conf.set("spark.sql.shuffle.partitions", str(dop))
            run.batch_dops.append(dop)
            batch = batched.where(F.col("__batch") == i).drop("__batch")
            part = qdef.partial({**tables, probe: batch})
            schema = part.schema
            run.batch_partitions.append(part.rdd.getNumPartitions())
            # Materialize under the current DOP — this is the point where
            # the runtime parallelism choice actually takes effect.
            partial_pdfs.append(part.toPandas())
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old_dop)
    import pandas as pd

    union_pdf = pd.concat(partial_pdfs, ignore_index=True)
    parts_df = spark.createDataFrame(union_pdf, schema=schema)
    run.result = qdef.merge(parts_df)
    return run
