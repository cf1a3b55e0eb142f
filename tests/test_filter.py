"""Tests for the DOP tuning request filter (§5.2)."""
import pytest

from repro.core import (
    STAGE,
    TASK,
    AutoTuner,
    RuntimeInfoCollector,
    TuningRequest,
    TuningRequestFilter,
)
from repro.engine.exec_sim import SimExecutor
from tests.test_exec_sim import join_query, linear_query

GB = 1e9


class TestFilter:
    def test_accepts_reasonable_request(self):
        ex = SimExecutor(linear_query(scan_bytes=2 * GB))
        ex.step()
        f = TuningRequestFilter(ex)
        assert f.check(TuningRequest(STAGE, 1, 4)).accepted

    def test_rejects_finished_query(self):
        ex = SimExecutor(linear_query())
        ex.run()
        d = TuningRequestFilter(ex).check(TuningRequest(STAGE, 1, 4))
        assert not d.accepted and "finished" in d.reason

    def test_rejects_finished_stage(self):
        ex = SimExecutor(join_query(partitioned=False))
        collector = RuntimeInfoCollector(ex)
        while not collector.collect()[3].finished:
            ex.step()
        d = TuningRequestFilter(ex).check(TuningRequest(STAGE, 3, 4))
        assert not d.accepted and "finished" in d.reason

    def test_rejects_unknown_stage(self):
        ex = SimExecutor(linear_query())
        ex.step()
        assert not TuningRequestFilter(ex).check(TuningRequest(STAGE, 42, 2)).accepted

    def test_rejects_nonpositive_dop(self):
        ex = SimExecutor(linear_query())
        ex.step()
        assert not TuningRequestFilter(ex).check(TuningRequest(STAGE, 1, 0)).accepted

    def test_rejects_final_agg_stage(self):
        # §4.1: final aggregation parallelism fixed at 1
        ex = SimExecutor(linear_query())
        ex.step()
        d = TuningRequestFilter(ex).check(TuningRequest(STAGE, 0, 4))
        assert not d.accepted and "final" in d.reason

    def test_rejects_noop(self):
        ex = SimExecutor(linear_query())
        ex.step()
        d = TuningRequestFilter(ex).check(TuningRequest(STAGE, 1, 1))
        assert not d.accepted and "no-op" in d.reason

    def test_rejects_join_near_completion(self):
        # §5.2: T_remain < T_build -> reject (wasted resources)
        ex = SimExecutor(join_query(probe_bytes=1 * GB, build_bytes=2 * GB,
                                    partitioned=True))
        while not ex.states[1].built:
            ex.step()
        # run probing until nearly done: T_remain ~2 s, T_build(4) ~ 5.1 s
        while ex.states[2].scan_remaining > 0.1 * GB:
            ex.step()
        for _ in range(5):
            ex.step()
        assert not ex.done
        d = TuningRequestFilter(ex).check(TuningRequest(STAGE, 1, 4))
        assert not d.accepted
        assert "build" in d.reason

    def test_accepts_join_far_from_completion(self):
        ex = SimExecutor(join_query(probe_bytes=20 * GB, build_bytes=0.1 * GB,
                                    partitioned=True), stage_dop=2)
        while not ex.states[1].built:
            ex.step()
        for _ in range(80):
            ex.step()
        assert TuningRequestFilter(ex).check(TuningRequest(STAGE, 1, 4)).accepted

    def test_rejects_switch_in_progress(self):
        ex = SimExecutor(join_query(probe_bytes=20 * GB, build_bytes=2 * GB,
                                    partitioned=True), stage_dop=2)
        while not ex.states[1].built:
            ex.step()
        for _ in range(80):
            ex.step()
        assert ex.set_stage_dop(1, 4).applied
        d = TuningRequestFilter(ex).check(TuningRequest(STAGE, 1, 6))
        assert not d.accepted and "in progress" in d.reason

    def test_task_dop_requests_not_subject_to_build_check(self):
        # §4.1: once built, probe drivers can be added freely
        ex = SimExecutor(join_query(probe_bytes=1 * GB, build_bytes=2 * GB,
                                    partitioned=True))
        while not ex.states[1].built:
            ex.step()
        while ex.states[2].scan_remaining > 0.05 * GB:
            ex.step()
        assert TuningRequestFilter(ex).check(TuningRequest(TASK, 1, 4)).accepted

    def test_decisions_recorded(self):
        # the tuner's log is the record of every filter decision
        ex = SimExecutor(linear_query())
        ex.step()
        tuner = AutoTuner(ex)
        tuner.direct(TuningRequest(STAGE, 1, 4))
        tuner.direct(TuningRequest(STAGE, 0, 4))
        assert [e.accepted for e in tuner.log] == [True, False]
        assert "final aggregation" in tuner.log[1].reason


class TestBuildEstimate:
    @pytest.mark.parametrize("new_dop", [2, 3, 8])
    @pytest.mark.parametrize("partitioned", [False, True], ids=["broadcast", "partitioned"])
    def test_estimate_matches_executor_rebuild(self, partitioned, new_dop):
        # one T_build formula: the filter's estimate is the reshuffle + build
        # time of the reconstruction the executor then starts
        ex = SimExecutor(join_query(build_bytes=0.7 * GB, partitioned=partitioned))
        ex.step()
        estimate = TuningRequestFilter(ex).whatif.build_time_s(1, new_dop)
        op = ex.set_stage_dop(1, new_dop).rebuild
        assert op is not None and op.partitioned == partitioned
        assert estimate == pytest.approx(op.shuffle_time_s + op.build_time_s, rel=1e-12)
