"""The evaluation workload: TPC-H-lite queries as (a) engine stage trees
with SF100 cost annotations for the timing simulator, (b) Spark DataFrame
implementations, and (c) DuckDB SQL for the correctness oracle.

Queries (paper §6):

* **Q1/Q3/Q5/Q7-lite** — the TPC-H queries used in §6.2/§6.3 (Figs. 22–25),
  restricted to the columns of the TPC-H-lite schema;
* **Q2-lite** — §6.5.2's auto-tuning subject, built so its fragment tree
  carries the paper's stage numbering (S1 with upstream scan S2, S10 with
  upstream scan S11);
* **Q2J** — the two-way partitioned join of §4.5/§6.4 (Fig. 15, Table 2);
* **QSHUF** — §6.4.2's orders⋈customer query, with and without the
  elastic shuffle stage (Fig. 27).

Stage trees follow the paper's plans: every join lives in its own
fragment, probe side is ``children[0]``; default DFS numbering reproduces
the paper's stage ids (S0 = output/final fragment).

Simulator volumes are the paper's SF100 bytes (``queries.catalog``); the
calibrated per-driver rates are documented in ``cluster.calibration``.
Per-query probe rates below the default model hash tables exceeding one
node's memory (Q2J: a 16.57 GB build side on 16 GB nodes).

Every Spark function imports ``pyspark.sql.functions as F`` in its own
body: the simulator plane imports this module for ``sim_query`` alone, and
a module-level import would load pyspark (and py4j) into every simulator
run. DESIGN.md §5 states the rule; ``tests/test_layering.py`` guards it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cluster import calibration as cal
from repro.engine import plan as P
from repro.engine.exec_sim import SimQuery, StageCost
from repro.engine.plan import fragment_plan
from repro.queries.catalog import sf100_bytes

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession


@dataclass
class QueryDef:
    """One workload query: sim spec + Spark impl + oracle SQL.

    A query with a ``probe_table`` is two-phase (§4.1): ``partial`` maps
    the tables to a mergeable partial result and ``merge`` turns the union
    of partials into the answer. Single-shot Spark runs
    ``merge(partial(tables))``; the micro-batch harness calls ``partial``
    once per probe-table batch, so the DOP can change between batches.
    ``probe_key`` is the probe column a batch is split and repartitioned
    on: the key of the stage the paper's scripts tune (S1).
    """

    name: str
    description: str
    tables: list[str]
    duckdb_sql: str
    spark_impl: Callable[[SparkSession, dict[str, DataFrame]], DataFrame]
    _sim: Callable[[], SimQuery]
    #: probe-side table for the micro-batch IQRE harness (None = no harness).
    probe_table: str | None = None
    probe_key: str | None = None
    partial: Callable[[dict[str, DataFrame]], DataFrame] | None = None
    merge: Callable[[DataFrame], DataFrame] | None = None

    def sim_query(self) -> SimQuery:
        return self._sim()


def _two_phase(name: str, description: str, tables: list[str], sql: str,
               sim: Callable[[], SimQuery], probe_table: str, probe_key: str,
               partial: Callable[[dict[str, DataFrame]], DataFrame],
               merge: Callable[[DataFrame], DataFrame]) -> QueryDef:
    return QueryDef(name, description, tables, sql,
                    lambda spark, t: merge(partial(t)), sim,
                    probe_table, probe_key, partial, merge)


def _scan(table: str, selectivity: float, *, shuffle_cap: float | None = None) -> StageCost:
    return StageCost(
        per_driver_rate_mb_s=cal.SCAN_RATE_MB_S,
        selectivity=selectivity,
        scan_bytes=sf100_bytes(table),
        out_shuffle_rate_mb_s=shuffle_cap,
    )


# =========================================================================
# Q1-lite — pricing summary (scan + two-phase aggregation; Fig. 25b)
# =========================================================================
Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity)       AS sum_qty,
       sum(l_extendedprice)  AS sum_base,
       avg(l_discount)       AS avg_disc,
       count(*)              AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


def q1_partial(t: dict[str, DataFrame]) -> DataFrame:
    import pyspark.sql.functions as F

    return (
        t["lineitem"].where(F.col("l_shipdate") <= F.lit("1998-09-02").cast("timestamp"))
        .groupBy("l_returnflag", "l_linestatus")
        .agg(
            F.sum("l_quantity").alias("sum_qty"),
            F.sum("l_extendedprice").alias("sum_base"),
            F.sum("l_discount").alias("sum_disc"),
            F.count(F.lit(1)).alias("count_order"),
        )
    )


def q1_merge(parts: DataFrame) -> DataFrame:
    import pyspark.sql.functions as F

    return (
        parts.groupBy("l_returnflag", "l_linestatus")
        .agg(
            F.sum("sum_qty").alias("sum_qty"),
            F.sum("sum_base").alias("sum_base"),
            (F.sum("sum_disc") / F.sum("count_order")).alias("avg_disc"),
            F.sum("count_order").alias("count_order"),
        )
    )


def q1_sim() -> SimQuery:
    pl = P.output(
        P.final_agg(
            P.exchange(P.partial_agg(P.filter_(P.scan("lineitem"), "l_shipdate <= ...")))
        )
    )
    tree = fragment_plan(pl)  # S0 final, S1 scan+partial agg
    costs = {
        0: StageCost(per_driver_rate_mb_s=cal.AGG_RATE_MB_S),
        1: _scan("lineitem", 1e-7),
    }
    return SimQuery("Q1", tree, costs)


# =========================================================================
# Q3-lite — shipping priority (two broadcast joins; Figs. 21–25a)
# =========================================================================
Q3_SQL = """
SELECT l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < TIMESTAMP '1995-03-15'
  AND l_shipdate > TIMESTAMP '1995-03-15'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, l_orderkey
LIMIT 10
"""


def q3_partial(t: dict[str, DataFrame]) -> DataFrame:
    import pyspark.sql.functions as F

    c = t["customer"].where(F.col("c_mktsegment") == "BUILDING")
    o = t["orders"].where(F.col("o_orderdate") < F.lit("1995-03-15").cast("timestamp"))
    li = t["lineitem"].where(F.col("l_shipdate") > F.lit("1995-03-15").cast("timestamp"))
    return (
        li.join(o, li.l_orderkey == o.o_orderkey)
        .join(c, o.o_custkey == c.c_custkey)
        .groupBy("l_orderkey", "o_orderdate")
        .agg(F.sum(F.col("l_extendedprice") * (1 - F.col("l_discount"))).alias("revenue"))
    )


def q3_merge(parts: DataFrame) -> DataFrame:
    import pyspark.sql.functions as F

    return (
        parts.groupBy("l_orderkey", "o_orderdate")
        .agg(F.sum("revenue").alias("revenue"))
        .orderBy(F.desc("revenue"), F.asc("l_orderkey"))
        .limit(10)
        .select("l_orderkey", "revenue", "o_orderdate")
    )


def q3_plan() -> P.PlanNode:
    """Fig. 21's stage tree: S0 final/topN, S1 join(lineitem), S2 scan
    lineitem, S3 join(orders⋈customer), S4 scan orders, S5 scan customer."""
    s5 = P.exchange(P.filter_(P.scan("customer"), "c_mktsegment='BUILDING'"))
    s4 = P.exchange(P.filter_(P.scan("orders"), "o_orderdate < 1995-03-15"))
    s3 = P.exchange(P.hash_join(s4, s5, partitioned=False, on="o_custkey=c_custkey"))
    s2 = P.exchange(P.filter_(P.scan("lineitem"), "l_shipdate > 1995-03-15"))
    s1 = P.exchange(
        P.partial_agg(P.hash_join(s2, s3, partitioned=False, on="l_orderkey=o_orderkey"))
    )
    return P.output(P.topn(P.final_agg(s1), n=10))


def q3_sim() -> SimQuery:
    tree = fragment_plan(q3_plan())
    costs = {
        0: StageCost(per_driver_rate_mb_s=cal.AGG_RATE_MB_S),
        # probe over date-filtered lineitem; partial-agg output is tiny
        1: StageCost(per_driver_rate_mb_s=62.0, selectivity=1e-6),
        2: _scan("lineitem", 0.5),
        # orders⋈customer: ~20% of orders survive (BUILDING segment),
        # output rows widened by o_orderdate/custkey columns
        3: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=0.26),
        4: _scan("orders", 0.45),
        5: _scan("customer", 0.2),
    }
    return SimQuery("Q3", tree, costs)


# =========================================================================
# Q2J — two-way partitioned join (Fig. 15, §6.4.1, Table 2)
# =========================================================================
Q2J_SQL = """
SELECT count(l_orderkey) AS cnt
FROM lineitem
INNER JOIN orders ON l_orderkey = o_orderkey
"""


def q2j_partial(t: dict[str, DataFrame]) -> DataFrame:
    import pyspark.sql.functions as F

    li, o = t["lineitem"], t["orders"]
    return (
        li.join(o, li.l_orderkey == o.o_orderkey)
        .agg(F.count("l_orderkey").alias("cnt"))
    )


def sum_counts(parts: DataFrame) -> DataFrame:
    """Merge of the count queries Q2J and QSHUF."""
    import pyspark.sql.functions as F

    return parts.agg(F.sum("cnt").alias("cnt"))


def q2j_plan() -> P.PlanNode:
    s3 = P.exchange(P.scan("orders"))
    s2 = P.exchange(P.scan("lineitem"))
    s1 = P.exchange(
        P.partial_agg(P.hash_join(s2, s3, partitioned=True, on="l_orderkey=o_orderkey"))
    )
    return P.output(P.final_agg(s1))


def q2j_sim() -> SimQuery:
    tree = fragment_plan(q2j_plan())
    costs = {
        0: StageCost(per_driver_rate_mb_s=cal.AGG_RATE_MB_S),
        # 16.57 GB distributed hash table on 16 GB nodes: probe rate well
        # below the in-cache default (calibrated to the paper's 1331.99 s
        # baseline at stage DOP 2).
        1: StageCost(per_driver_rate_mb_s=29.1, selectivity=1e-6),
        2: _scan("lineitem", 1.0, shuffle_cap=cal.SHUFFLE_EXEC_RATE_MB_S),
        3: _scan("orders", 1.0, shuffle_cap=cal.SHUFFLE_EXEC_RATE_MB_S),
    }
    return SimQuery("Q2J", tree, costs)


# =========================================================================
# QSHUF — orders⋈customer, shuffle-bottlenecked (§6.4.2, Figs. 27–28)
# =========================================================================
QSHUF_SQL = """
SELECT count(o_orderkey) AS cnt
FROM orders
JOIN customer ON o_custkey = c_custkey
WHERE c_nationkey = 9
"""


def qshuf_partial(t: dict[str, DataFrame]) -> DataFrame:
    import pyspark.sql.functions as F

    o = t["orders"]
    c = t["customer"].where(F.col("c_nationkey") == 9)
    return o.join(c, o.o_custkey == c.c_custkey).agg(F.count("o_orderkey").alias("cnt"))


def qshuf_sim(*, with_shuffle_stage: bool = False) -> SimQuery:
    """§6.4.2 setup: orders stored on only two nodes so its scan's shuffle
    executors bottleneck the query; optionally insert the elastic shuffle
    stage (Fig. 27) between the orders scan and the join."""
    build = P.exchange(P.filter_(P.scan("customer"), "c_nationkey = 9"))
    if with_shuffle_stage:
        probe = P.exchange(P.shuffle_stage_node(P.exchange(P.scan("orders"))))
    else:
        probe = P.exchange(P.scan("orders"))
    join = P.exchange(
        P.partial_agg(P.hash_join(probe, build, partitioned=True, on="o_custkey=c_custkey"))
    )
    tree = fragment_plan(P.output(P.final_agg(join)))
    if with_shuffle_stage:
        # S0 final, S1 join, S2 shuffle stage, S3 scan orders, S4 scan customer
        costs = {
            0: StageCost(per_driver_rate_mb_s=cal.AGG_RATE_MB_S),
            1: StageCost(per_driver_rate_mb_s=55.0, selectivity=1e-6),
            2: StageCost(
                per_driver_rate_mb_s=cal.SHUFFLE_EXEC_RATE_MB_S,
                per_task_rate=True,
            ),
            3: _scan("orders", 1.0),
            4: _scan("customer", 0.04),
        }
        pinned = {3: ["storage0", "storage1"]}
        initial = {1: 10, 2: 1, 3: 2, 4: 2}
    else:
        # S0 final, S1 join, S2 scan orders, S3 scan customer
        costs = {
            0: StageCost(per_driver_rate_mb_s=cal.AGG_RATE_MB_S),
            1: StageCost(per_driver_rate_mb_s=55.0, selectivity=1e-6),
            2: _scan("orders", 1.0, shuffle_cap=cal.SHUFFLE_EXEC_RATE_MB_S),
            3: _scan("customer", 0.04),
        }
        pinned = {2: ["storage0", "storage1"]}
        initial = {1: 10, 2: 2, 3: 2}
    name = "QSHUF+shuffle" if with_shuffle_stage else "QSHUF"
    return SimQuery(name, tree, costs, pinned_nodes=pinned, initial_stage_dop=initial)


# =========================================================================
# Q2-lite — min-cost supplier (§6.5.2 auto-tuning; stage ids S1/S2/S10/S11)
# =========================================================================
Q2_SQL = """
SELECT s_acctbal, n_name, p_partkey, ps_supplycost
FROM part, supplier, partsupp, nation, region
WHERE p_partkey = ps_partkey
  AND s_suppkey = ps_suppkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = 'EUROPE'
  AND p_size = 15
  AND ps_supplycost = (
      SELECT min(ps_supplycost)
      FROM partsupp ps2, supplier s2, nation n2, region r2
      WHERE p_partkey = ps2.ps_partkey
        AND s2.s_suppkey = ps2.ps_suppkey
        AND s2.s_nationkey = n2.n_nationkey
        AND n2.n_regionkey = r2.r_regionkey
        AND r2.r_name = 'EUROPE'
  )
ORDER BY s_acctbal DESC, p_partkey
LIMIT 20
"""


def q2_spark(spark: SparkSession, t: dict[str, DataFrame]) -> DataFrame:
    import pyspark.sql.functions as F

    part = t["part"].where(F.col("p_size") == 15)
    eu_nation = (
        t["nation"]
        .join(t["region"].where(F.col("r_name") == "EUROPE"),
              F.col("n_regionkey") == F.col("r_regionkey"))
        .select("n_nationkey", "n_name")
    )
    eu_supp = t["supplier"].join(
        eu_nation, F.col("s_nationkey") == F.col("n_nationkey")
    )
    ps_eu = t["partsupp"].join(eu_supp, F.col("ps_suppkey") == F.col("s_suppkey"))
    min_cost = ps_eu.groupBy("ps_partkey").agg(
        F.min("ps_supplycost").alias("min_cost")
    ).withColumnRenamed("ps_partkey", "mc_partkey")
    return (
        ps_eu.join(part, F.col("ps_partkey") == F.col("p_partkey"))
        .join(
            min_cost,
            (F.col("ps_partkey") == F.col("mc_partkey"))
            & (F.col("ps_supplycost") == F.col("min_cost")),
        )
        .orderBy(F.desc("s_acctbal"), F.asc("p_partkey"))
        .limit(20)
        .select("s_acctbal", "n_name", "p_partkey", "ps_supplycost")
    )


def q2_plan() -> tuple[P.PlanNode, list[int]]:
    """Fragment tree shaped so the paper's §6.5.2 description holds: the
    top join S1 probes scan S2 (partsupp), and the min-cost subquery's
    aggregation is stage S10 with upstream scan S11."""
    region = P.exchange(P.filter_(P.scan("region"), "r_name='EUROPE'"))
    nation = P.exchange(P.scan("nation"))
    j_nr = P.exchange(P.hash_join(nation, region, partitioned=False))
    supplier = P.exchange(P.scan("supplier"))
    j_sn = P.exchange(P.hash_join(supplier, j_nr, partitioned=False))
    part = P.exchange(P.filter_(P.scan("part"), "p_size=15"))
    j_ps = P.exchange(P.hash_join(part, j_sn, partitioned=False))
    sub_scan = P.exchange(P.scan("partsupp"))
    sub_agg = P.exchange(P.partial_agg(sub_scan))
    j_sub = P.exchange(P.hash_join(j_ps, sub_agg, partitioned=False))
    top_scan = P.exchange(P.scan("partsupp"))
    top_join = P.exchange(P.partial_agg(P.hash_join(top_scan, j_sub, partitioned=False)))
    root = P.output(P.topn(P.final_agg(top_join), n=20))
    # DFS allocation order: final, top_join, scan partsupp, j_sub, j_ps,
    # scan part, j_sn, scan supplier, j_nr, scan nation, scan region,
    # sub_agg, sub_scan — mapped to the paper's numbering:
    ids = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 10, 11]
    return root, ids


def q2_sim() -> SimQuery:
    root, ids = q2_plan()
    tree = fragment_plan(root, stage_ids=ids)
    costs = {
        0: StageCost(per_driver_rate_mb_s=cal.AGG_RATE_MB_S),
        1: StageCost(per_driver_rate_mb_s=30.0, selectivity=1e-6),   # top join over partsupp
        2: _scan("partsupp", 1.0),
        3: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=1.0),
        4: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=1.0),
        5: _scan("part", 0.2),
        6: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=0.2),
        7: _scan("supplier", 1.0),
        8: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=1.0),
        9: _scan("nation", 1.0),
        10: StageCost(per_driver_rate_mb_s=25.0, selectivity=0.035),  # min-cost agg
        11: _scan("partsupp", 1.0),
        12: _scan("region", 1.0),
    }
    return SimQuery("Q2", tree, costs)


# =========================================================================
# Q5-lite — local supplier volume (join chain; Fig. 25c)
# =========================================================================
Q5_SQL = """
SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1994-01-01'
  AND o_orderdate < TIMESTAMP '1995-01-01'
GROUP BY n_name
"""


def q5_spark(spark: SparkSession, t: dict[str, DataFrame]) -> DataFrame:
    import pyspark.sql.functions as F

    asia_nation = (
        t["nation"]
        .join(t["region"].where(F.col("r_name") == "ASIA"),
              F.col("n_regionkey") == F.col("r_regionkey"))
        .select("n_nationkey", "n_name")
    )
    s = t["supplier"].join(asia_nation, F.col("s_nationkey") == F.col("n_nationkey"))
    o = t["orders"].where(
        (F.col("o_orderdate") >= F.lit("1994-01-01").cast("timestamp"))
        & (F.col("o_orderdate") < F.lit("1995-01-01").cast("timestamp"))
    )
    c = t["customer"]
    li = t["lineitem"]
    return (
        li.join(o, li.l_orderkey == o.o_orderkey)
        .join(c, (o.o_custkey == c.c_custkey))
        .join(s, (li.l_suppkey == s.s_suppkey) & (c.c_nationkey == s.s_nationkey))
        .groupBy("n_name")
        .agg(F.sum(F.col("l_extendedprice") * (1 - F.col("l_discount"))).alias("revenue"))
    )


def q5_sim() -> SimQuery:
    region = P.exchange(P.scan("region"))
    nation = P.exchange(P.scan("nation"))
    j_nr = P.exchange(P.hash_join(nation, region, partitioned=False))
    supplier = P.exchange(P.scan("supplier"))
    j_sn = P.exchange(P.hash_join(supplier, j_nr, partitioned=False))
    customer = P.exchange(P.scan("customer"))
    j_c = P.exchange(P.hash_join(customer, j_sn, partitioned=False))
    orders = P.exchange(P.filter_(P.scan("orders"), "o_orderdate in 1994"))
    j_o = P.exchange(P.hash_join(orders, j_c, partitioned=False))
    lineitem = P.exchange(P.scan("lineitem"))
    j_l = P.exchange(P.partial_agg(P.hash_join(lineitem, j_o, partitioned=False)))
    tree = fragment_plan(P.output(P.final_agg(j_l)))
    costs = {
        0: StageCost(per_driver_rate_mb_s=cal.AGG_RATE_MB_S),
        1: StageCost(per_driver_rate_mb_s=55.0, selectivity=1e-6),
        2: _scan("lineitem", 1.0),
        3: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=1.0),
        4: _scan("orders", 0.15),
        5: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=0.2),
        6: _scan("customer", 1.0),
        7: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=0.2),
        8: _scan("supplier", 1.0),
        9: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=1.0),
        10: _scan("nation", 1.0),
        11: _scan("region", 0.2),
    }
    return SimQuery("Q5", tree, costs)


# =========================================================================
# Q7-lite — volume shipping (Fig. 25d)
# =========================================================================
Q7_SQL = """
SELECT supp_nation, cust_nation, l_year, sum(volume) AS revenue
FROM (
    SELECT n1.n_name AS supp_nation,
           n2.n_name AS cust_nation,
           EXTRACT(year FROM l_shipdate) AS l_year,
           l_extendedprice * (1 - l_discount) AS volume
    FROM supplier, lineitem, orders, customer, nation n1, nation n2
    WHERE s_suppkey = l_suppkey
      AND o_orderkey = l_orderkey
      AND c_custkey = o_custkey
      AND s_nationkey = n1.n_nationkey
      AND c_nationkey = n2.n_nationkey
      AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
           OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
      AND l_shipdate BETWEEN TIMESTAMP '1995-01-01' AND TIMESTAMP '1996-12-31'
) shipping
GROUP BY supp_nation, cust_nation, l_year
"""


def q7_spark(spark: SparkSession, t: dict[str, DataFrame]) -> DataFrame:
    import pyspark.sql.functions as F

    n1 = t["nation"].select(
        F.col("n_nationkey").alias("n1_key"), F.col("n_name").alias("supp_nation")
    )
    n2 = t["nation"].select(
        F.col("n_nationkey").alias("n2_key"), F.col("n_name").alias("cust_nation")
    )
    li = t["lineitem"].where(
        (F.col("l_shipdate") >= F.lit("1995-01-01").cast("timestamp"))
        & (F.col("l_shipdate") <= F.lit("1996-12-31").cast("timestamp"))
    )
    joined = (
        li.join(t["orders"], F.col("o_orderkey") == F.col("l_orderkey"))
        .join(t["customer"], F.col("c_custkey") == F.col("o_custkey"))
        .join(t["supplier"], F.col("s_suppkey") == F.col("l_suppkey"))
        .join(n1, F.col("s_nationkey") == F.col("n1_key"))
        .join(n2, F.col("c_nationkey") == F.col("n2_key"))
        .where(
            ((F.col("supp_nation") == "FRANCE") & (F.col("cust_nation") == "GERMANY"))
            | ((F.col("supp_nation") == "GERMANY") & (F.col("cust_nation") == "FRANCE"))
        )
    )
    return (
        joined.withColumn("l_year", F.year("l_shipdate").cast("long"))
        .withColumn("volume", F.col("l_extendedprice") * (1 - F.col("l_discount")))
        .groupBy("supp_nation", "cust_nation", "l_year")
        .agg(F.sum("volume").alias("revenue"))
    )


def q7_sim() -> SimQuery:
    nation2 = P.exchange(P.scan("nation"))
    customer = P.exchange(P.scan("customer"))
    j_cn = P.exchange(P.hash_join(customer, nation2, partitioned=False))
    orders = P.exchange(P.scan("orders"))
    j_o = P.exchange(P.hash_join(orders, j_cn, partitioned=False))
    nation1 = P.exchange(P.scan("nation"))
    supplier = P.exchange(P.hash_join(P.exchange(P.scan("supplier")), nation1, partitioned=False))
    lineitem = P.exchange(P.filter_(P.scan("lineitem"), "l_shipdate in 95-96"))
    j_ls = P.exchange(P.hash_join(lineitem, supplier, partitioned=False))
    j_top = P.exchange(P.partial_agg(P.hash_join(j_ls, j_o, partitioned=False)))
    tree = fragment_plan(P.output(P.final_agg(j_top)))
    # DFS ids: 0 final, 1 top join, 2 j_ls, 3 scan lineitem, 4 j_s,
    # 5 scan supplier, 6 scan nation1, 7 j_o, 8 scan orders, 9 j_cn,
    # 10 scan customer, 11 scan nation2
    costs = {
        0: StageCost(per_driver_rate_mb_s=cal.AGG_RATE_MB_S),
        1: StageCost(per_driver_rate_mb_s=55.0, selectivity=1e-6),
        2: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=0.08),
        3: _scan("lineitem", 0.28),
        4: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=1.0),
        5: _scan("supplier", 1.0),
        6: _scan("nation", 1.0),
        7: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=0.3),
        8: _scan("orders", 1.0),
        9: StageCost(per_driver_rate_mb_s=cal.JOIN_PROBE_RATE_MB_S, selectivity=0.08),
        10: _scan("customer", 1.0),
        11: _scan("nation", 1.0),
    }
    return SimQuery("Q7", tree, costs)


# =========================================================================
# registry
# =========================================================================
QUERIES: dict[str, QueryDef] = {
    "Q1": _two_phase(
        "Q1", "pricing summary (scan + 2-phase agg)",
        ["lineitem"], Q1_SQL, q1_sim, "lineitem", "l_orderkey", q1_partial, q1_merge,
    ),
    "Q3": _two_phase(
        "Q3", "shipping priority (two broadcast joins + topN)",
        ["customer", "orders", "lineitem"], Q3_SQL, q3_sim,
        "lineitem", "l_orderkey", q3_partial, q3_merge,
    ),
    "Q2J": _two_phase(
        "Q2J", "two-way partitioned join (Fig. 15)",
        ["lineitem", "orders"], Q2J_SQL, q2j_sim, "lineitem", "l_orderkey",
        q2j_partial, sum_counts,
    ),
    "QSHUF": _two_phase(
        "QSHUF", "orders⋈customer, shuffle-bottlenecked (§6.4.2)",
        ["orders", "customer"], QSHUF_SQL, qshuf_sim, "orders", "o_custkey",
        qshuf_partial, sum_counts,
    ),
    "Q2": QueryDef(
        "Q2", "min-cost supplier (auto-tuning subject, §6.5.2)",
        ["part", "supplier", "partsupp", "nation", "region"], Q2_SQL,
        q2_spark, q2_sim,
    ),
    "Q5": QueryDef(
        "Q5", "local supplier volume (join chain)",
        ["customer", "orders", "lineitem", "supplier", "nation", "region"],
        Q5_SQL, q5_spark, q5_sim,
    ),
    "Q7": QueryDef(
        "Q7", "volume shipping between two nations",
        ["customer", "orders", "lineitem", "supplier", "nation"],
        Q7_SQL, q7_spark, q7_sim,
    ),
}


def load_tables(
    spark: SparkSession, names: list[str], *, sf: float = 0.01
) -> dict[str, DataFrame]:
    """Generate the named TPC-H-lite tables as Spark DataFrames."""
    from repro import synth_data

    return {n: synth_data.TPCH_TABLES[n](spark, sf=sf) for n in names}
