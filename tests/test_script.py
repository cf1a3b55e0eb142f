"""Tests for the script executor (§6.1's experiment driver)."""
import pytest

from repro.core import AutoTuner, ScriptExecutor, parse_script
from repro.core.script import AC, AP, CONSTRAINT, RP
from repro.engine.exec_sim import SimExecutor
from tests.test_exec_sim import linear_query

GB = 1e9


class TestParse:
    def test_parse_ap(self):
        (a,) = parse_script("AP S1,2,4 @ 10.5")
        assert (a.kind, a.stage_id, a.a, a.b, a.t) == (AP, 1, 2, 4, 10.5)

    def test_parse_ac_rp(self):
        acts = parse_script("AC S3,1,2 @ 5\nRP S2,4,2 @ 9")
        assert acts[0].kind == AC and acts[1].kind == RP

    def test_parse_constraint(self):
        (a,) = parse_script("CONSTRAINT S1,30 @ 150")
        assert a.kind == CONSTRAINT and a.b == 30 and a.t == 150.0

    @pytest.mark.parametrize("deadline", ["30.5", "30."])
    def test_constraint_deadline_must_be_whole_seconds(self, deadline):
        # a fractional deadline must not be truncated silently
        with pytest.raises(ValueError, match="unparseable script line"):
            parse_script(f"CONSTRAINT S1,{deadline} @ 150")

    def test_sorted_by_time(self):
        acts = parse_script("AP S1,2,4 @ 50\nAP S3,1,2 @ 10")
        assert [a.t for a in acts] == [10.0, 50.0]

    def test_comments_and_blanks_ignored(self):
        acts = parse_script("# header\n\nAP S1,1,2 @ 1  # inline\n")
        assert len(acts) == 1

    def test_bad_line_raises(self):
        with pytest.raises(ValueError):
            parse_script("FROBNICATE S1 @ 2")

    def test_notation_round_trip(self):
        (a,) = parse_script("AP S1,2,4 @ 10")
        assert a.notation() == "AP S1,2,4 @ 10.0"


class TestExecution:
    def test_actions_fire_once_at_time(self):
        ex = SimExecutor(linear_query(scan_bytes=4 * GB))
        tuner = AutoTuner(ex)
        script = ScriptExecutor.from_text("AP S1,1,4 @ 5")
        ex.run(controllers=[script.controller(tuner)])
        assert len(tuner.log) == 1
        assert 5.0 <= tuner.log[0].t <= 5.3
        assert script.applied() and not script.rejected()

    def test_rejected_action_recorded(self):
        ex = SimExecutor(linear_query(scan_bytes=1 * GB))
        tuner = AutoTuner(ex)
        script = ScriptExecutor.from_text("AP S0,1,4 @ 1")  # final stage
        ex.run(controllers=[script.controller(tuner)])
        (r,) = script.rejected()
        assert "final" in r.reason

    def test_constraint_action_sets_deadline(self):
        ex = SimExecutor(linear_query(scan_bytes=4 * GB))
        tuner = AutoTuner(ex)
        script = ScriptExecutor.from_text("CONSTRAINT S1,10 @ 5")
        ex.run(controllers=[script.controller(tuner), tuner.monitor])
        assert 1 in tuner.constraints
        assert tuner.constraints[1].finish_by_s == pytest.approx(15.0, abs=0.3)

    def test_multiple_actions_in_order(self):
        ex = SimExecutor(linear_query(scan_bytes=8 * GB))
        tuner = AutoTuner(ex)
        script = ScriptExecutor.from_text("AP S1,1,2 @ 2\nAP S1,2,4 @ 6")
        ex.run(controllers=[script.controller(tuner)])
        assert [e.notation() for e in tuner.log] == ["AP S1,1,2", "AP S1,2,4"]
