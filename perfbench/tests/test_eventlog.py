"""The event-log reader: on hand-made events, and on the log of a tiny
SF 0.01 Spark run tagged with job groups."""
import json

import pytest

from perfbench.eventlog import _log_files, group_stats, read_events


def _task(stage, *, run_ms=10, cpu_ns=5_000_000, gc_ms=1, wbytes=100, rrecs=7,
          reason="Success"):
    return {
        "Event": "SparkListenerTaskEnd", "Stage ID": stage, "Stage Attempt ID": 0,
        "Task End Reason": {"Reason": reason},
        "Task Metrics": {
            "Executor Run Time": run_ms, "Executor CPU Time": cpu_ns, "JVM GC Time": gc_ms,
            "Shuffle Write Metrics": {"Shuffle Bytes Written": wbytes},
            "Shuffle Read Metrics": {"Total Records Read": rrecs},
        },
    }


def _stage(kind, stage, group=None):
    e = {"Event": kind, "Stage Info": {"Stage ID": stage, "Stage Attempt ID": 0}}
    if group:
        e["Properties"] = {"spark.jobGroup.id": group}
    return e


def test_group_stats_on_synthetic_events():
    events = [
        {"Event": "SparkListenerJobStart", "Properties": {"spark.jobGroup.id": "a"}},
        _stage("SparkListenerStageSubmitted", 1, "a"),
        _task(1), _task(1, reason="ExceptionFailure"),
        _stage("SparkListenerStageCompleted", 1),
        {"Event": "SparkListenerJobStart", "Properties": {}},
        _stage("SparkListenerStageSubmitted", 2),
        _task(2),  # outside any group: not counted
    ]
    stats = group_stats(events)
    assert list(stats) == ["a"]
    a = stats["a"]
    assert (a.jobs, a.stages, a.tasks, a.failed_tasks) == (1, 1, 2, 1)
    assert a.shuffle_write_bytes == 200 and a.shuffle_read_records == 14
    assert a.executor_run_s == pytest.approx(0.02)
    assert a.executor_cpu_s == pytest.approx(0.01)
    assert a.gc_s == pytest.approx(0.002)


def test_rolled_files_in_index_order_without_checksums(tmp_path):
    d = tmp_path / "eventlog_v2_app"
    d.mkdir()
    for i in (10, 2, 1):
        (d / f"events_{i}_app").write_text(json.dumps({"Event": f"e{i}"}) + "\n")
    (d / ".events_1_app.crc").write_text("junk")
    (d / "appstatus_app").write_text("")
    assert [p.name for p in _log_files(tmp_path)] == ["events_1_app", "events_2_app",
                                                      "events_10_app"]
    assert [e["Event"] for e in read_events(tmp_path)] == ["e1", "e2", "e10"]


def test_compressed_logs_are_refused(tmp_path):
    (tmp_path / "events_1_app.zstd").write_bytes(b"\x28\xb5")
    with pytest.raises(ValueError):
        list(read_events(tmp_path))


def test_event_log_of_a_tiny_spark_run(tmp_path, monkeypatch):
    pytest.importorskip("pyspark")
    from pyspark import SparkContext

    from perfbench.spark_plane import generate, start_session
    from repro.queries.tpch import QUERIES
    from repro.spark_iqre import run_microbatch

    if SparkContext._active_spark_context is not None:
        pytest.skip("needs a fresh SparkContext to turn the event log on")
    for var in ("PYSPARK_SUBMIT_ARGS", "SPARK_LOCAL_DIRS"):
        monkeypatch.delenv(var, raising=False)  # start_session sets them
    (tmp_path / "tmp").mkdir()
    spark = start_session(tmp_path, 2, tmp_path / "ev")
    try:
        tables, _, _ = generate(["lineitem", "orders"], seed=3, spark=spark, sf=0.01)
        sc = spark.sparkContext
        sc.setJobGroup("single", "Q2J single-shot")
        QUERIES["Q2J"].spark_impl(spark, tables).collect()
        sc.setJobGroup("micro", "Q2J micro-batch")
        run_microbatch(spark, "Q2J", tables, n_batches=2, dop_schedule=[2, 4]).result.collect()
    finally:
        spark.stop()
    stats = group_stats(read_events(tmp_path / "ev"))
    single, micro = stats["single"], stats["micro"]
    assert single.jobs >= 1 and single.tasks >= 1 and single.stages >= 1
    assert single.shuffle_write_bytes > 0  # broadcast joins are off: Q2J shuffles
    assert micro.jobs > single.jobs  # one job set per batch
    assert single.failed_tasks == micro.failed_tasks == 0
    assert micro.executor_run_s > 0
