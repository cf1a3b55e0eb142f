"""The control plane against a data plane it knows only through the
``DataPlane`` contract (DESIGN.md §2.3): a fake plane with hand-set
snapshots drives the filter, the what-if service, the auto-tuner and a
script controller, and no simulator runs."""
from dataclasses import dataclass, field, replace

import pytest

from repro.cluster import calibration as cal
from repro.core import (
    STAGE,
    TASK,
    AutoTuner,
    QueryInfo,
    ScriptExecutor,
    StageInfo,
    TuningOutcome,
    TuningRequest,
    TuningRequestFilter,
    WhatIfService,
)
from repro.engine import plan as P
from repro.engine.plan import StageTree, fragment_plan

MB = 1e6
#: §6.5.1's worked example: T_remain 49.68 s, T_build 2.4 s, n_f 4.
T_REMAIN_S, T_BUILD_S = 49.68, 2.4
RATE = 100 * MB
BUILD_BYTES = T_BUILD_S * cal.mb_s(cal.BUILD_RATE_MB_S)


def stage_facts(sid: int, t: float, *, remaining: float = 0.0, build: float = 0.0,
                capacity: float = 0.0) -> StageInfo:
    """A running stage at DOP 1 that consumed ``RATE`` over the last 5 s."""
    return StageInfo(
        stage_id=sid, dop=1, task_dop=1, finished=False,
        consumed_bytes=5 * RATE, expected_input_bytes=5 * RATE + remaining,
        remaining_bytes=remaining, turn_up_counter=0, build_bytes=build,
        shuffle_bound=False, switching=False, output_capacity_bytes_s=capacity,
        samples=((t - 5.0, 0.0), (t, 5 * RATE)),
    )


@dataclass
class FakePlane:
    """Only the ``DataPlane`` members. S0 final agg <- S1 broadcast join
    <- probe scan S2, build scan S3. The probe scan has ``remaining`` bytes
    left and its output could reach 8x its current rate."""

    t: float = 10.0
    remaining: float = T_REMAIN_S * RATE
    tree: StageTree = field(default_factory=lambda: fragment_plan(P.output(P.final_agg(
        P.exchange(P.partial_agg(P.hash_join(
            P.exchange(P.scan("a")), P.exchange(P.scan("b")), partitioned=False)))))))
    node_cores: int = 8
    dops: dict[int, tuple[int, int]] = field(default_factory=dict)
    requests: list[tuple[str, int, int]] = field(default_factory=list)

    def selectivity(self, stage_id: int) -> float:
        return 1.0

    def snapshot(self) -> QueryInfo:
        stages = {
            0: stage_facts(0, self.t),
            1: stage_facts(1, self.t, build=BUILD_BYTES),
            2: stage_facts(2, self.t, remaining=self.remaining, capacity=8 * RATE),
            3: replace(stage_facts(3, self.t), finished=True),
        }
        for sid, (dop, task_dop) in self.dops.items():
            stages[sid] = replace(stages[sid], dop=dop, task_dop=task_dop)
        return QueryInfo(t=self.t, done=False, stages=stages)

    def _apply(self, kind: str, stage_id: int, n: int) -> TuningOutcome:
        self.requests.append((kind, stage_id, n))
        dop, task_dop = self.dops.get(stage_id, (1, 1))
        self.dops[stage_id] = (n, task_dop) if kind == STAGE else (dop, n)
        return TuningOutcome(True, latency_s=0.01)

    def set_stage_dop(self, stage_id: int, n: int) -> TuningOutcome:
        return self._apply(STAGE, stage_id, n)

    def set_task_dop(self, stage_id: int, n: int) -> TuningOutcome:
        return self._apply(TASK, stage_id, n)


class TestWhatIf:
    def test_worked_example(self):
        # §6.5.1: (49.68 - 2.4) / 4 + 2.4
        p = WhatIfService(FakePlane()).predict(1, 4)
        assert p.scan_stage_id == 2
        assert p.t_remain_s == pytest.approx(T_REMAIN_S)
        assert p.t_tuning_s == pytest.approx(T_BUILD_S)
        assert (p.n_f, p.n_f_max) == (pytest.approx(4.0), pytest.approx(8.0))
        assert p.t_predicted_s == pytest.approx(14.22)

    def test_n_f_capped_by_upstream_output_capacity(self):
        # §5.3: a 16x request gets the upstream scan's 8x headroom
        p = WhatIfService(FakePlane()).predict(1, 16)
        assert p.n_f == pytest.approx(8.0)
        assert p.t_predicted_s == pytest.approx(8.31)

    def test_scan_stage_capped_by_node_cores(self):
        assert WhatIfService(FakePlane(node_cores=6)).max_n_f(2) == 6.0


class TestFilter:
    def test_accepts_join_request_with_time_left(self):
        assert TuningRequestFilter(FakePlane()).check(TuningRequest(STAGE, 1, 4)).accepted

    def test_rejects_join_request_when_t_remain_below_t_build(self):
        # §5.2: 2 s of probe left, a 2.4 s rebuild
        d = TuningRequestFilter(FakePlane(remaining=2 * RATE)).check(TuningRequest(STAGE, 1, 4))
        assert not d.accepted
        assert "2.00s < hash table build time 2.40s" in d.reason

    def test_task_request_needs_no_rebuild(self):
        f = TuningRequestFilter(FakePlane(remaining=2 * RATE))
        assert f.check(TuningRequest(TASK, 1, 4)).accepted

    @pytest.mark.parametrize("sid, reason", [(0, "final"), (3, "finished"), (9, "unknown")])
    def test_rejects_pinned_finished_and_unknown_stages(self, sid, reason):
        d = TuningRequestFilter(FakePlane()).check(TuningRequest(STAGE, sid, 4))
        assert not d.accepted and reason in d.reason


class TestTuner:
    def test_direct_applies_through_the_plane(self):
        plane = FakePlane()
        tuner = AutoTuner(plane)
        out = tuner.direct(TuningRequest(STAGE, 1, 4))
        assert out.applied and out.latency_s == 0.01
        assert plane.requests == [(STAGE, 1, 4)]
        assert tuner.log[0].notation() == "AP S1,1,4" and tuner.log[0].t == 10.0

    def test_rejected_request_never_reaches_the_plane(self):
        plane = FakePlane(remaining=2 * RATE)
        tuner = AutoTuner(plane)
        assert not tuner.direct(TuningRequest(STAGE, 1, 4)).applied
        assert plane.requests == [] and not tuner.log[0].accepted


def test_script_controller_drives_the_plane():
    plane = FakePlane()
    tuner = AutoTuner(plane)
    script = ScriptExecutor.from_text("AP S1,1,4 @ 10\nAC S2,1,2 @ 10\nAP S1,4,8 @ 30")
    ctrl = script.controller(tuner)
    assert ctrl(10.0, plane) == 30.0
    assert plane.requests == [(STAGE, 1, 4), (TASK, 2, 2)]
    plane.t, plane.remaining = 30.0, 2 * RATE
    assert ctrl(30.0, plane) == float("inf")
    assert plane.requests == [(STAGE, 1, 4), (TASK, 2, 2)]
    (rejected,) = script.rejected()
    assert rejected.notation() == "AP S1,4,8 @ 30.0"
    assert "2.00s < hash table build time 2.40s" in rejected.reason
    assert [e.notation() for e in tuner.log] == ["AP S1,1,4", "AC S2,1,2", "AP S1,4,8"]
