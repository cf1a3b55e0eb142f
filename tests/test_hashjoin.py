"""Tests for the hash-table rebuild model of DOP switching (§4.5)."""
import pytest

from repro.engine.hashjoin import RebuildOp, rebuild_phases_s

GB = 1e9
ORDERS = 16.57 * GB  # Q2J's build side (Table 1)


def switch(old_dop, new_dop, build_bytes=ORDERS, started_at=0.0):
    return RebuildOp(1, old_dop, new_dop, True, build_bytes, started_at)


def broadcast(new_dop, build_bytes=GB, started_at=0.0):
    return RebuildOp(3, 1, new_dop, False, build_bytes, started_at)


class TestPartitionedSwitch:
    def test_table2_row_2_to_4(self):
        # Paper Table 2: 2->4 shuffle 12.55 s, build 30.12 s, total 42.67 s
        op = switch(2, 4)
        assert op.shuffle_time_s == pytest.approx(12.55, rel=0.02)
        assert op.build_time_s == pytest.approx(30.12, rel=0.02)
        assert op.as_row()["Total time"] == pytest.approx(42.67, rel=0.02)

    def test_table2_row_4_to_6(self):
        assert switch(4, 6).as_row()["Total time"] == pytest.approx(29.03, rel=0.05)

    def test_table2_row_6_to_8(self):
        assert switch(6, 8).as_row()["Total time"] == pytest.approx(21.61, rel=0.12)

    def test_times_scale_inverse_with_dop(self):
        a, b = switch(2, 4), switch(2, 8)
        assert b.done_at - b.started_at == pytest.approx((a.done_at - a.started_at) / 2)

    def test_phases_are_sequential(self):
        op = switch(2, 4, build_bytes=GB, started_at=10.0)
        assert 10.0 < op.shuffle_done_at < op.done_at


class TestBroadcastRebuild:
    def test_no_shuffle_phase(self):
        op = broadcast(4, started_at=5.0)
        assert op.shuffle_time_s == 0.0
        assert op.shuffle_done_at == 5.0

    def test_duration_independent_of_task_count(self):
        # §6.3: reconstruction for multiple tasks occurs in parallel
        assert broadcast(2).build_time_s == broadcast(8).build_time_s

    def test_q3_s3_build_time_matches_paper(self):
        # paper: ~2.991 s for stage 3 (build side = filtered customer)
        op = broadcast(2, build_bytes=0.2 * 2.29 * GB)
        assert op.build_time_s == pytest.approx(2.991, rel=0.15)


class TestEstimate:
    def test_partitioned_estimate_includes_shuffle(self):
        t = sum(rebuild_phases_s(True, ORDERS, 4))
        assert t == pytest.approx(42.67, rel=0.02)

    def test_broadcast_estimate(self):
        assert rebuild_phases_s(False, GB, 8) == (0.0, pytest.approx(1e9 / 137e6, rel=0.01))

    def test_record_as_row_shape(self):
        op = RebuildOp(1, 2, 4, True, GB, 0.0)
        op.shuffle_done_at, op.done_at = 12.0, 42.0
        assert op.as_row() == {
            "DOP switching": "2 -> 4", "Total time": 42.0, "Shuffle time": 12.0, "Build time": 30.0,
        }
