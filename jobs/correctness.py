"""Job C1 — correctness: every query result vs the DuckDB oracle.

Runs each workload query (a) as a single-shot Spark DataFrame job and
(b) through the micro-batch IQRE harness with mid-query shuffle-DOP
changes, and diffs both against DuckDB. Stands in for Fig. 20's
"the implementation is reasonable" argument.

Usage: spark-submit jobs/correctness.py [sf]
"""
import os
import sys

# spark-submit provides the session; plain python needs the same config.
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] --conf spark.ui.enabled=false pyspark-shell",
)
from pyspark.sql import SparkSession  # noqa: E402

from repro.oracle import assert_equivalent  # noqa: E402
from repro.queries.tpch import QUERIES, load_tables  # noqa: E402
from repro.spark_iqre import run_microbatch  # noqa: E402


def main(sf: float = 0.01) -> None:
    spark = (
        SparkSession.builder.appName("repro-correctness")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    all_tables = sorted({t for q in QUERIES.values() for t in q.tables})
    tables = load_tables(spark, all_tables, sf=sf)
    for name, qdef in QUERIES.items():
        df = qdef.spark_impl(spark, {t: tables[t] for t in qdef.tables})
        assert_equivalent(df, qdef.duckdb_sql, **{t: tables[t] for t in qdef.tables})
        print(f"  {name}: single-shot Spark == DuckDB  OK")
        if qdef.probe_table:
            run = run_microbatch(spark, name, tables, n_batches=3, dop_schedule=[2, 8, 4])
            assert_equivalent(run.result, qdef.duckdb_sql, **{t: tables[t] for t in qdef.tables})
            print(f"  {name}: micro-batch IQRE (DOPs {run.batch_dops}) == DuckDB  OK")
    print("all queries correct")
    spark.stop()


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.01)
