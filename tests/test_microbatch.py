"""Tests for the real-Spark micro-batch IQRE harness (repro.spark_iqre).

The defining property: changing the shuffle DOP *mid-query* must never
change the answer — every run is diffed against the DuckDB oracle.
"""
import threading
import warnings

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
        for _ in range(3):
            run = run_microbatch(spark, "Q2J", tables, n_batches=2)
            assert len(_persisted_rdds(spark) - before) == run.n_batches  # the partials
            run.result.collect()
            run.release()
            assert _persisted_rdds(spark) - before == set()

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

    def test_specs_cover_probe_queries(self):
        assert set(MICROBATCH) == {"Q1", "Q3", "Q2J", "QSHUF"}

    @pytest.mark.parametrize("name", MICROBATCH)
    def test_probe_key_is_a_probe_column(self, tables, name):
        qdef = QUERIES[name]
        assert qdef.probe_key in tables[qdef.probe_table].columns


def _off_default(sc, *candidates: int) -> int:
    """The first candidate DOP that differs from the stored inputs'
    partition count (``defaultParallelism``), so no scan stage can pass
    for the stage that ran at it."""
    return next(d for d in candidates if d != sc.defaultParallelism)


class TestExecutedDop:
    @pytest.mark.parametrize("name", ["Q2J", "Q3"])
    def test_probe_stage_runs_at_scheduled_dop(self, spark, tables, name):
        sc = spark.sparkContext
        schedule = [_off_default(sc, 3, 5), _off_default(sc, 32, 48)]
        run = run_microbatch(spark, name, tables, n_batches=2, dop_schedule=schedule)
        assert run.batch_executed_dops == schedule

    def test_no_batch_writes_the_session_conf(self, spark, tables):
        seen = []
        schedule = [3, 9, 5]

        def dop(i):
            seen.append(spark.conf.get("spark.sql.shuffle.partitions"))
            return schedule[i]

        run_microbatch(spark, "Q2J", tables, n_batches=3, dop_schedule=dop)
        assert seen == ["1", "1", "1"]


class TestOverlappedBatches:
    """Up to two batches run at once; every way out of a run leaves no
    stored copy behind and the session conf as it was."""

    @pytest.fixture
    def clean(self, spark):
        before_rdds = _persisted_rdds(spark)
        before_conf = spark.conf.get("spark.sql.shuffle.partitions")
        yield
        assert _persisted_rdds(spark) - before_rdds == set()
        assert spark.conf.get("spark.sql.shuffle.partitions") == before_conf

    def test_bad_dop_while_a_batch_is_in_flight(self, spark, tables, clean):
        with pytest.raises(ValueError, match="got 0 for batch 2"):
            run_microbatch(spark, "Q2J", tables, n_batches=3, dop_schedule=[2, 4, 0])

    def test_error_in_a_worker_propagates(self, spark, tables, clean, monkeypatch):
        qdef = QUERIES["Q2J"]
        bad_key = tables["lineitem"].first()["l_orderkey"]  # in exactly one slice

        def boom(k):
            if k == bad_key:
                raise RuntimeError(f"boom at key {k}")
            return k

        partial = qdef.partial

        def failing(t):
            li = t["lineitem"]
            udf = F.udf(boom, li.schema["l_orderkey"].dataType)
            return partial({**t, "lineitem": li.withColumn("l_orderkey", udf("l_orderkey"))})

        monkeypatch.setattr(qdef, "partial", failing)
        with pytest.raises(Exception, match=f"boom at key {bad_key}"):
            run_microbatch(spark, "Q2J", tables, n_batches=4, dop_schedule=[2, 3, 4, 5])

    def test_callable_schedule_called_once_per_batch_in_order(self, spark, tables, clean):
        calls = []

        def dop(i):
            calls.append((i, threading.get_ident()))
            return 2 + i

        run = run_microbatch(spark, "Q2J", tables, n_batches=4, dop_schedule=dop)
        run.release()
        assert calls == [(i, threading.get_ident()) for i in range(4)]


class TestJobGroupInherited:
    def test_every_job_is_in_the_callers_group(self, spark, tables):
        sc = spark.sparkContext
        listener_bus = sc._jsc.sc().listenerBus()

        def one_job(group: str) -> int:
            sc.setJobGroup(group, "marker")
            sc.parallelize([1]).count()
            listener_bus.waitUntilEmpty()
            (job,) = sc.statusTracker().getJobIdsForGroup(group)
            return job

        try:
            first = one_job("before-run")
            sc.setJobGroup("g", "micro-batch run")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run = run_microbatch(spark, "Q2J", tables, n_batches=3,
                                     dop_schedule=[2, _off_default(sc, 32, 48), 4])
            last = one_job("after-run")
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        run.release()
        assert not [w for w in caught if "Tags will not be inherited" in str(w.message)]
        in_group = set(sc.statusTracker().getJobIdsForGroup("g"))
        assert last - first > 1
        assert set(range(first + 1, last)) <= in_group
        # Read independently of batch_executed_dops: a stage of the group
        # ran at the middle batch's DOP.
        tasks = {sc.statusTracker().getStageInfo(s).numTasks
                 for j in in_group for s in sc.statusTracker().getJobInfo(j).stageIds}
        assert run.batch_dops[1] in tasks
