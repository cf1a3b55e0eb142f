"""Tests for the what-if service (§5.2–§5.3)."""
import pytest

from repro.core import WhatIfService, probe_scan_stage
from repro.engine.exec_sim import SimExecutor
from repro.engine.plan import fragment_plan
from repro.queries.tpch import QUERIES, q2_plan, q3_plan
from tests.test_exec_sim import join_query, linear_query

GB = 1e9
MB = 1e6


class TestProbeScanStage:
    def test_q3_chains(self):
        tree = fragment_plan(q3_plan())
        # §6.5: S1's upstream table scan is S2; S3's is S4
        assert probe_scan_stage(tree, 1) == 2
        assert probe_scan_stage(tree, 3) == 4
        assert probe_scan_stage(tree, 2) == 2

    def test_q3_root_walks_through_join(self):
        tree = fragment_plan(q3_plan())
        assert probe_scan_stage(tree, 0) == 2

    def test_q2_subquery_unit(self):
        root, ids = q2_plan()
        tree = fragment_plan(root, stage_ids=ids)
        # §6.5.2: S10's upstream scan is S11, S1's is S2
        assert probe_scan_stage(tree, 10) == 11
        assert probe_scan_stage(tree, 1) == 2


class TestRemainingTime:
    def test_t_remain_formula(self):
        # consume at 100 MB/s for 5 s of a 1 GB scan -> 0.5 GB left -> 5 s
        ex = SimExecutor(linear_query(scan_bytes=1 * GB))
        for _ in range(50):
            ex.step()
        w = WhatIfService(ex)
        assert w.remaining_time_s(1) == pytest.approx(5.0, rel=0.1)

    def test_t_remain_uses_probe_scan(self):
        ex = SimExecutor(join_query(probe_bytes=2 * GB, partitioned=False))
        while not ex.states[1].built:
            ex.step()
        for _ in range(40):
            ex.step()
        w = WhatIfService(ex)
        # S1's remaining time comes from S2's scan progress
        s2 = w.snapshot()[2]
        assert w.remaining_time_s(1) == pytest.approx(
            s2.remaining_bytes / s2.recent_rate_bytes_s, rel=1e-6
        )

    def test_huge_when_barely_consuming(self):
        # during the build phase the probe scan only fills its (one page)
        # prefetch buffer -> the remaining-time estimate is enormous
        ex = SimExecutor(join_query(build_bytes=1 * GB, partitioned=False))
        for _ in range(3):
            ex.step()
        w = WhatIfService(ex)
        assert w.remaining_time_s(1) > 100.0


class TestPredict:
    def _warmed(self):
        ex = SimExecutor(join_query(probe_bytes=4 * GB, build_bytes=0.5 * GB,
                                    partitioned=False))
        while not ex.states[1].built:
            ex.step()
        for _ in range(60):
            ex.step()
        return ex

    def test_paper_formula_with_t_build(self):
        # §6.5.1: T_pred = (T_remain - T_tuning)/n_f + T_tuning
        ex = self._warmed()
        w = WhatIfService(ex)
        p = w.predict(1, 2)
        assert p.t_tuning_s == pytest.approx(0.5e9 / 137e6, rel=0.01)
        expect = (p.t_remain_s - p.t_tuning_s) / p.n_f + p.t_tuning_s
        assert p.t_predicted_s == pytest.approx(expect)

    def test_no_build_time_for_scan_stage(self):
        ex = SimExecutor(linear_query(scan_bytes=2 * GB))
        for _ in range(30):
            ex.step()
        p = WhatIfService(ex).predict(1, 4)
        assert p.t_tuning_s == 0.0

    def test_decrease_has_no_tuning_cost(self):
        ex = self._warmed()
        p = WhatIfService(ex).predict(1, 1)
        assert p.t_tuning_s == 0.0

    def test_n_f_capped_by_upstream_headroom(self):
        # §5.3: requesting 1000x is capped by what the upstream can supply
        ex = self._warmed()
        w = WhatIfService(ex)
        p = w.predict(1, 1000)
        assert p.n_f <= p.n_f_max < 1000 / 1

    def test_requested_nf_used_when_below_cap(self):
        ex = self._warmed()
        w = WhatIfService(ex)
        p = w.predict(1, 2)
        if 2.0 < p.n_f_max:
            assert p.n_f == pytest.approx(2.0)

    def test_dop_time_list_monotone_until_cap(self):
        ex = self._warmed()
        w = WhatIfService(ex)
        preds = w.dop_time_list(1, [2, 3, 4])
        assert preds[0].t_predicted_s >= preds[1].t_predicted_s >= preds[2].t_predicted_s

    def test_prediction_accuracy_end_to_end(self):
        """The predicted completion should land near the actual one."""
        ex = SimExecutor(QUERIES["Q3"].sim_query(), stage_dop=2, task_dop=3)
        records = {}

        def ctrl(t, e):
            if abs(t - 10.0) < e.dt / 2:
                w = WhatIfService(e)
                records["pred_end"] = t + w.predict(3, 8).t_predicted_s
                e.set_stage_dop(3, 8)
        ex.run(controllers=[ctrl])
        actual = ex.states[3].end_at
        assert records["pred_end"] == pytest.approx(actual, abs=3.0)
