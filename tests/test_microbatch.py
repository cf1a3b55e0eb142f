"""Tests for the real-Spark micro-batch IQRE harness (repro.spark_iqre).

The defining property: changing the shuffle DOP *mid-query* must never
change the answer — every run is diffed against the DuckDB oracle.
"""
import pyspark.sql.functions as F
import pytest

from repro.oracle import assert_equivalent
from repro.queries.tpch import QUERIES, load_tables
from repro.spark_iqre import run_microbatch

SF = 0.005
#: The queries with a micro-batch form: those whose QueryDef names a probe table.
MICROBATCH = sorted(q for q, d in QUERIES.items() if d.probe_table)


@pytest.fixture(scope="module")
def tables(spark):
    names = sorted({t for q in QUERIES.values() for t in q.tables})
    return load_tables(spark, names, sf=SF)


class TestCorrectness:
    @pytest.mark.parametrize(
        "name,schedule",
        [pytest.param(q, [2, 16, 4], id=q) for q in MICROBATCH]
        + [pytest.param("Q1", [4, 16, 8], id="Q1-4-16-8")],
    )
    def test_matches_oracle_with_dop_changes(self, spark, tables, name, schedule):
        qdef = QUERIES[name]
        sub = {t: tables[t] for t in qdef.tables}
        run = run_microbatch(spark, name, tables, n_batches=3, dop_schedule=schedule)
        assert_equivalent(run.result, qdef.duckdb_sql, **sub)

    def test_matches_single_shot(self, spark, tables):
        qdef = QUERIES["Q2J"]
        single = qdef.spark_impl(spark, {t: tables[t] for t in qdef.tables})
        run = run_microbatch(spark, "Q2J", tables, n_batches=4)
        assert run.result.collect()[0]["cnt"] == single.collect()[0]["cnt"]

    def test_one_batch_degenerates_to_single_shot(self, spark, tables):
        qdef = QUERIES["QSHUF"]
        run = run_microbatch(spark, "QSHUF", tables, n_batches=1, dop_schedule=[8])
        assert_equivalent(
            run.result, qdef.duckdb_sql, **{t: tables[t] for t in qdef.tables}
        )


class TestEmptyAndSkewedBatches:
    @pytest.mark.parametrize("name", MICROBATCH)
    @pytest.mark.parametrize("probe_rows,n_batches", [(0, 3), (3, 8)],
                             ids=["empty-probe", "3-rows-8-batches"])
    def test_matches_oracle(self, spark, tables, name, probe_rows, n_batches):
        # With 3 rows over 8 batches, at least five batches are empty.
        qdef = QUERIES[name]
        sub = {t: tables[t] for t in qdef.tables}
        sub[qdef.probe_table] = sub[qdef.probe_table].limit(probe_rows).cache()
        assert sub[qdef.probe_table].count() == probe_rows
        run = run_microbatch(spark, name, sub, n_batches=n_batches)
        assert_equivalent(run.result, qdef.duckdb_sql, **sub)


class TestHostileInputs:
    def test_dop_below_one_rejected(self, spark, tables):
        before = spark.conf.get("spark.sql.shuffle.partitions")
        with pytest.raises(ValueError, match="DOP must be >= 1, got 0"):
            run_microbatch(spark, "Q2J", tables, n_batches=2, dop_schedule=[0, -3])
        with pytest.raises(ValueError, match="DOP must be >= 1, got -3"):
            run_microbatch(spark, "Q2J", tables, n_batches=2, dop_schedule=[2, -3])
        assert spark.conf.get("spark.sql.shuffle.partitions") == before

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_batches_below_one_rejected(self, spark, tables, n):
        with pytest.raises(ValueError, match="n_batches"):
            run_microbatch(spark, "Q2J", tables, n_batches=n)

    @pytest.mark.parametrize("name", ["Q5", "NOPE"])
    def test_query_without_microbatch_form_rejected(self, spark, tables, name):
        with pytest.raises(ValueError, match=name):
            run_microbatch(spark, name, tables, n_batches=2)

    def test_empty_dop_schedule_rejected(self, spark, tables):
        before = spark.conf.get("spark.sql.shuffle.partitions")
        with pytest.raises(ValueError, match="dop_schedule"):
            run_microbatch(spark, "Q2J", tables, n_batches=2, dop_schedule=[])
        assert spark.conf.get("spark.sql.shuffle.partitions") == before

    def test_missing_tables_rejected(self, spark, tables):
        with pytest.raises(ValueError, match=r"\['customer', 'orders'\]"):
            run_microbatch(spark, "Q3", {"lineitem": tables["lineitem"]}, n_batches=2)


def _persisted_rdds(spark) -> set[int]:
    return set(spark.sparkContext._jsc.getPersistentRDDs().keySet())


class TestInputsReadOnce:
    @pytest.mark.parametrize("table,key", [("lineitem", "l_orderkey"), ("orders", "o_orderkey")],
                             ids=["probe", "build"])
    def test_each_row_evaluated_once_per_run(self, spark, tables, table, key):
        # Q2J's probe is lineitem and its build side orders; a run that
        # rescans an input per batch evaluates its rows n_batches times.
        seen = spark.sparkContext.accumulator(0)

        def counted(v):
            seen.add(1)
            return v

        src = tables[table]
        wrapped = src.withColumn(key, F.udf(counted, src.schema[key].dataType)(F.col(key)))
        run = run_microbatch(spark, "Q2J", {**tables, table: wrapped}, n_batches=4)
        run.result.collect()
        assert seen.value == src.count()

    def test_no_copies_left_across_runs(self, spark, tables):
        before = _persisted_rdds(spark)
        runs = [run_microbatch(spark, "Q2J", tables, n_batches=2) for _ in range(3)]
        # Only the partials a live result still reads may stay persisted.
        assert len(_persisted_rdds(spark) - before) <= sum(r.n_batches for r in runs)
        for r in runs:
            r.result.collect()

    def test_failed_run_leaves_nothing_persisted(self, spark, tables):
        before = _persisted_rdds(spark)
        with pytest.raises(ValueError, match="got 0 for batch 1"):
            run_microbatch(spark, "Q2J", tables, n_batches=2, dop_schedule=[2, 0])
        assert _persisted_rdds(spark) - before == set()


class TestDopMechanics:
    def test_schedule_list_applied_per_batch(self, spark, tables):
        run = run_microbatch(spark, "Q2J", tables, n_batches=3, dop_schedule=[2, 9, 5])
        assert run.batch_dops == [2, 9, 5]

    def test_schedule_callable(self, spark, tables):
        run = run_microbatch(spark, "Q2J", tables, n_batches=3,
                             dop_schedule=lambda i: 3 * (i + 1))
        assert run.batch_dops == [3, 6, 9]

    def test_default_schedule_doubles(self, spark, tables):
        run = run_microbatch(spark, "Q2J", tables, n_batches=3)
        assert run.batch_dops == [2, 4, 8]

    def test_conf_restored_after_run(self, spark, tables):
        before = spark.conf.get("spark.sql.shuffle.partitions")
        run_microbatch(spark, "Q2J", tables, n_batches=2, dop_schedule=[3, 7])
        assert spark.conf.get("spark.sql.shuffle.partitions") == before

    def test_partition_counts_recorded(self, spark, tables):
        run = run_microbatch(spark, "Q2J", tables, n_batches=2, dop_schedule=[2, 4])
        assert len(run.batch_partitions) == 2
        assert all(p >= 1 for p in run.batch_partitions)

    def test_specs_cover_probe_queries(self):
        assert set(MICROBATCH) == {"Q1", "Q3", "Q2J", "QSHUF"}
