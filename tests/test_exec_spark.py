"""Tests for the script-driven Spark data plane: a paper-notation tuning
script becomes a per-batch shuffle-DOP schedule
(``repro.spark_iqre.script_to_dop_schedule``) that ``run_microbatch``
applies mid-query."""
import pytest

from repro.core.script import ScriptAction, parse_script
from repro.oracle import assert_equivalent
from repro.queries.tpch import QUERIES, load_tables
from repro.spark_iqre import run_microbatch, script_to_dop_schedule

SF = 0.005


@pytest.fixture(scope="module")
def tables(spark):
    return load_tables(spark, ["lineitem", "orders", "customer"], sf=SF)


class TestScheduleDerivation:
    def test_one_batch_per_action(self):
        acts = parse_script("AP S1,2,4 @ 10\nAP S1,4,8 @ 20")
        assert script_to_dop_schedule(acts, initial_dop=2) == [2, 4, 8]

    def test_rp_action_lowers_dop(self):
        acts = parse_script("AP S1,2,8 @ 10\nRP S1,8,2 @ 30")
        assert script_to_dop_schedule(acts) == [2, 8, 2]

    def test_constraint_actions_ignored(self):
        acts = parse_script("CONSTRAINT S1,30 @ 150\nAP S1,2,4 @ 10")
        assert script_to_dop_schedule(acts) == [2, 4]

    def test_actions_applied_in_time_order(self):
        acts = parse_script("AP S1,4,8 @ 20\nAP S1,2,4 @ 10")
        assert script_to_dop_schedule(acts) == [2, 4, 8]

    def test_empty_script(self):
        assert script_to_dop_schedule([], initial_dop=3) == [3]

    def test_action_below_dop_one_dropped(self):
        # The simulator's filter rejects these ("DOP must be >= 1"); the
        # Spark plane must not run them clamped to 1 instead.
        acts = parse_script("AP S1,2,4 @ 10\nRP S1,4,0 @ 20\nAC S1,4,6 @ 30")
        acts.append(ScriptAction(t=40, kind="RP", stage_id=1, a=6, b=-3))
        assert script_to_dop_schedule(acts) == [2, 4, 6]


def _run_script(spark, query, tables, script_text):
    schedule = script_to_dop_schedule(parse_script(script_text))
    run = run_microbatch(spark, query, tables, n_batches=len(schedule), dop_schedule=schedule)
    return schedule, run


class TestRealExecution:
    def test_q2j_with_paper_script_matches_oracle(self, spark, tables):
        qdef = QUERIES["Q2J"]
        schedule, run = _run_script(
            spark, "Q2J", tables, "AP S1,2,4 @ 120\nAP S1,4,6 @ 290\nAP S1,6,8 @ 450"
        )
        assert schedule == [2, 4, 6, 8]
        assert run.batch_dops == [2, 4, 6, 8]
        assert_equivalent(
            run.result, qdef.duckdb_sql, **{t: tables[t] for t in qdef.tables}
        )

    def test_q3_with_mixed_script_matches_oracle(self, spark, tables):
        qdef = QUERIES["Q3"]
        schedule, run = _run_script(spark, "Q3", tables, "AP S1,2,8 @ 5\nRP S1,8,4 @ 50")
        assert schedule == [2, 8, 4]
        assert_equivalent(
            run.result, qdef.duckdb_sql, **{t: tables[t] for t in qdef.tables}
        )
