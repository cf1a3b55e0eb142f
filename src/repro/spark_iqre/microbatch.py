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

Every runner returns a DataFrame that tests check against the DuckDB
oracle — changing the DOP mid-query must never change the answer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession


@dataclass
class MicrobatchSpec:
    """How to run one query incrementally.

    ``partial`` computes a mergeable partial result over one probe-side
    batch; ``merge`` combines the union of partials into the final result.
    """

    probe_table: str
    batch_key: str
    partial: Callable[[SparkSession, dict[str, DataFrame], DataFrame], DataFrame]
    merge: Callable[[SparkSession, DataFrame], DataFrame]


@dataclass
class MicrobatchRun:
    result: DataFrame
    n_batches: int
    #: shuffle DOP in force while each batch executed.
    batch_dops: list[int] = field(default_factory=list)
    #: observed partition counts of each partial (post-AQE).
    batch_partitions: list[int] = field(default_factory=list)


# ---------------------------------------------------------------- Q1 spec
def _q1_partial(spark, t, batch):
    return (
        batch.where(F.col("l_shipdate") <= F.lit("1998-09-02").cast("timestamp"))
        .groupBy("l_returnflag", "l_linestatus")
        .agg(
            F.sum("l_quantity").alias("sum_qty"),
            F.sum("l_extendedprice").alias("sum_base"),
            F.sum("l_discount").alias("sum_disc"),
            F.count(F.lit(1)).alias("count_order"),
        )
    )


def _q1_merge(spark, parts):
    return (
        parts.groupBy("l_returnflag", "l_linestatus")
        .agg(
            F.sum("sum_qty").alias("sum_qty"),
            F.sum("sum_base").alias("sum_base"),
            (F.sum("sum_disc") / F.sum("count_order")).alias("avg_disc"),
            F.sum("count_order").alias("count_order"),
        )
    )


# ---------------------------------------------------------------- Q3 spec
def _q3_partial(spark, t, batch):
    c = t["customer"].where(F.col("c_mktsegment") == "BUILDING")
    o = t["orders"].where(F.col("o_orderdate") < F.lit("1995-03-15").cast("timestamp"))
    li = batch.where(F.col("l_shipdate") > F.lit("1995-03-15").cast("timestamp"))
    return (
        li.join(o, li.l_orderkey == o.o_orderkey)
        .join(c, o.o_custkey == c.c_custkey)
        .groupBy("l_orderkey", "o_orderdate")
        .agg(F.sum(F.col("l_extendedprice") * (1 - F.col("l_discount"))).alias("revenue"))
    )


def _q3_merge(spark, parts):
    return (
        parts.groupBy("l_orderkey", "o_orderdate")
        .agg(F.sum("revenue").alias("revenue"))
        .orderBy(F.desc("revenue"), F.asc("l_orderkey"))
        .limit(10)
        .select("l_orderkey", "revenue", "o_orderdate")
    )


# --------------------------------------------------------------- Q2J spec
def _q2j_partial(spark, t, batch):
    o = t["orders"]
    return batch.join(o, batch.l_orderkey == o.o_orderkey).agg(
        F.count("l_orderkey").alias("cnt")
    )


def _q2j_merge(spark, parts):
    return parts.agg(F.sum("cnt").alias("cnt"))


# ------------------------------------------------------------- QSHUF spec
def _qshuf_partial(spark, t, batch):
    c = t["customer"].where(F.col("c_nationkey") == 9)
    return batch.join(c, batch.o_custkey == c.c_custkey).agg(
        F.count("o_orderkey").alias("cnt")
    )


def _qshuf_merge(spark, parts):
    return parts.agg(F.sum("cnt").alias("cnt"))


SPECS: dict[str, MicrobatchSpec] = {
    "Q1": MicrobatchSpec("lineitem", "l_orderkey", _q1_partial, _q1_merge),
    "Q3": MicrobatchSpec("lineitem", "l_orderkey", _q3_partial, _q3_merge),
    "Q2J": MicrobatchSpec("lineitem", "l_orderkey", _q2j_partial, _q2j_merge),
    "QSHUF": MicrobatchSpec("orders", "o_orderkey", _qshuf_partial, _qshuf_merge),
}


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
    the paper's headline usage pattern).
    """
    spec = SPECS[query]
    if dop_schedule is None:
        schedule: Callable[[int], int] = lambda i: 2 << i  # noqa: E731
    elif isinstance(dop_schedule, list):
        sched_list = dop_schedule
        schedule = lambda i: sched_list[min(i, len(sched_list) - 1)]  # noqa: E731
    else:
        schedule = dop_schedule

    probe = tables[spec.probe_table]
    batched = probe.withColumn(
        "__batch", F.pmod(F.abs(F.hash(F.col(spec.batch_key))), F.lit(n_batches))
    )
    old_dop = spark.conf.get("spark.sql.shuffle.partitions")
    run = MicrobatchRun(result=None, n_batches=n_batches)  # type: ignore[arg-type]
    partial_pdfs = []
    schema = None
    try:
        for i in range(n_batches):
            dop = max(1, int(schedule(i)))
            spark.conf.set("spark.sql.shuffle.partitions", str(dop))
            run.batch_dops.append(dop)
            batch = batched.where(F.col("__batch") == i).drop("__batch")
            part = spec.partial(spark, tables, batch)
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
    run.result = spec.merge(spark, parts_df)
    return run
