"""Tests for the DOP auto-tuner (§5.4)."""
from repro.core import AutoTuner, STAGE, TASK, TuningRequest, build_tuning_units
from repro.engine.exec_sim import SimExecutor
from repro.queries.tpch import QUERIES
from tests.test_exec_sim import linear_query

GB = 1e9


class TestTuningUnits:
    def test_q3_units(self):
        # Q3: scan S2 drives knob S1 (and S0's final agg is excluded);
        # scan S4 drives knob S3.
        ex = SimExecutor(QUERIES["Q3"].sim_query())
        units = {u.scan_stage_id: u.knob_stage_ids for u in build_tuning_units(ex.query.tree)}
        assert units[2] == [1, 2]  # intermediate knob first, scan fallback
        assert units[4] == [3, 4]
        assert units[5] == [5]  # customer scan feeds only build sides

    def test_q2_units_carry_paper_numbering(self):
        ex = SimExecutor(QUERIES["Q2"].sim_query())
        units = {u.scan_stage_id: u.knob_stage_ids for u in build_tuning_units(ex.query.tree)}
        assert 1 in units[2]       # S2 scan -> S1 knob
        assert units[11] == [10, 11]  # S11 scan -> S10 knob (+ scan fallback)

    def test_final_stages_not_knobs(self):
        ex = SimExecutor(QUERIES["Q1"].sim_query())
        for u in build_tuning_units(ex.query.tree):
            assert 0 not in u.knob_stage_ids


class TestDirect:
    def test_applies_and_logs(self):
        ex = SimExecutor(linear_query(scan_bytes=2 * GB))
        ex.step()
        tuner = AutoTuner(ex)
        out = tuner.direct(TuningRequest(STAGE, 1, 4))
        assert out.applied
        assert len(tuner.log) == 1
        e = tuner.log[0]
        assert e.notation() == "AP S1,1,4"
        assert not e.is_reduction

    def test_reduction_notation(self):
        ex = SimExecutor(linear_query(scan_bytes=4 * GB), stage_dop=4)
        ex.step()
        tuner = AutoTuner(ex)
        tuner.direct(TuningRequest(STAGE, 1, 2))
        assert tuner.log[0].notation() == "RP S1,4,2"
        assert tuner.log[0].is_reduction

    def test_task_dop_notation(self):
        ex = SimExecutor(linear_query(scan_bytes=2 * GB))
        ex.step()
        tuner = AutoTuner(ex)
        tuner.direct(TuningRequest(TASK, 1, 2))
        assert tuner.log[0].notation() == "AC S1,1,2"

    def test_filtered_request_logged_rejected(self):
        ex = SimExecutor(linear_query())
        ex.step()
        tuner = AutoTuner(ex)
        out = tuner.direct(TuningRequest(STAGE, 0, 4))
        assert not out.applied
        assert not tuner.log[0].accepted


class TestOneTime:
    def test_picks_minimal_feasible_dop(self):
        # 4 GB at 100 MB/s with ~35 s left: a 20 s constraint needs DOP 2.
        ex = SimExecutor(linear_query(scan_bytes=4 * GB))
        for _ in range(50):
            ex.step()
        tuner = AutoTuner(ex)
        pred, out = tuner.one_time(1, 20.0)
        assert out.applied
        assert pred.requested_dop == 2

    def test_tight_constraint_picks_higher_dop(self):
        ex = SimExecutor(linear_query(scan_bytes=4 * GB))
        for _ in range(50):
            ex.step()
        pred, out = AutoTuner(ex).one_time(1, 6.0)
        assert pred.requested_dop >= 4

    def test_impossible_constraint_picks_fastest(self):
        ex = SimExecutor(linear_query(scan_bytes=4 * GB))
        for _ in range(50):
            ex.step()
        pred, out = AutoTuner(ex).one_time(1, 0.001, max_dop=4)
        assert pred is not None
        assert pred.requested_dop >= 2


class TestMonitor:
    def test_scales_up_when_behind(self):
        ex = SimExecutor(linear_query(scan_bytes=8 * GB))
        tuner = AutoTuner(ex)
        tuner.monitor_interval_s = 2.0
        tuner.set_constraint(1, 30.0)  # needs ~267 MB/s; 1 driver does 100
        ex.run(controllers=[tuner.monitor])
        ups = [e for e in tuner.log if e.accepted and not e.is_reduction]
        assert ups
        assert ex.total_time_s <= 33.0

    def test_scales_down_when_ahead(self):
        ex = SimExecutor(linear_query(scan_bytes=2 * GB), stage_dop=8)
        tuner = AutoTuner(ex)
        tuner.monitor_interval_s = 1.0
        tuner.set_constraint(1, 60.0)  # 8x100 MB/s is far too fast
        ex.run(controllers=[tuner.monitor])
        downs = [e for e in tuner.log if e.is_reduction]
        assert downs
        assert ex.total_time_s <= 66.0

    def test_no_constraint_no_actions(self):
        ex = SimExecutor(linear_query())
        tuner = AutoTuner(ex)
        ex.run(controllers=[tuner.monitor])
        assert tuner.log == []

    def test_set_stage_deadline_resolves_to_scan(self):
        ex = SimExecutor(QUERIES["Q3"].sim_query())
        tuner = AutoTuner(ex)
        tuner.set_stage_deadline(1, 120.0)
        assert 2 in tuner.constraints  # S1's progress indicator is scan S2

    def test_constraint_replacement(self):
        ex = SimExecutor(linear_query())
        tuner = AutoTuner(ex)
        tuner.set_constraint(1, 50.0)
        tuner.set_constraint(1, 20.0)
        assert tuner.constraints[1].finish_by_s == 20.0
