"""Integration tests: each evaluation-section experiment reproduces the
paper's *shape* (who wins, by roughly what factor, where effects kick in).

Paper-vs-measured numbers are recorded in EXPERIMENTS.md; these tests pin
the qualitative claims so a regression in any mechanism (scheduler,
buffers, DOP switching, filter, predictor, tuner) breaks loudly.
"""
import hashlib
import json
from pathlib import Path

import pytest

from perfbench import sim_paper
from repro.experiments import (
    autotune,
    elastic_shuffle,
    prediction,
    q2j_switching,
    q3_intrastage,
    q3_intratask,
    table1,
)


@pytest.fixture(scope="module")
def e1():
    return q3_intratask.run()


@pytest.fixture(scope="module")
def e2():
    return q3_intrastage.run()


@pytest.fixture(scope="module")
def e3():
    return q2j_switching.run()


@pytest.fixture(scope="module")
def e4():
    return elastic_shuffle.run()


@pytest.fixture(scope="module")
def e5():
    return prediction.run()


@pytest.fixture(scope="module")
def e6():
    return autotune.run()


class TestTable1:
    def test_partitioning_schemes_match_paper(self):
        res = table1.run(sf=0.002)
        schemes = {r["table"]: (r["partitioning"], r["n_splits"]) for r in res["rows"]}
        assert len(res["rows"]) == len(schemes) == 8
        assert res["measured_total_bytes"] > 0
        assert schemes["Lineitem"] == ("10 nodes, 7 splits/node", 70)
        assert schemes["Nation"] == ("1 node, 1 split/node", 1)
        assert schemes["Orders"][1] == 10

    def test_size_ratios_roughly_constant(self):
        # measured/paper should be similar across the large tables, which
        # is what justifies running the simulator at the paper's volumes
        res = table1.run(sf=0.002)
        ratios = [
            r["measured_over_paper"]
            for r in res["rows"]
            if r["table"] in ("Part", "Partsupp", "Customer", "Orders", "Lineitem")
        ]
        assert max(ratios) / min(ratios) < 25

    def test_split_sizes_consistent(self):
        res = table1.run(sf=0.002)
        for r in res["rows"]:
            assert r["measured_split_bytes"] == pytest.approx(
                r["measured_bytes"] / r["n_splits"], rel=0.01
            )


class TestE1IntraTask:
    def test_baseline_near_paper(self, e1):
        assert e1["baseline_s"] == pytest.approx(740.34, rel=0.05)

    def test_reduction_near_paper(self, e1):
        # paper: 58.42 % reduction
        assert 45.0 <= e1["reduction_pct"] <= 70.0

    def test_third_adjustment_is_noop(self, e1):
        # §6.2: CPU already maxed — throughput must not grow
        assert e1["saturation_thr_after_mb_s"] <= e1["saturation_thr_before_mb_s"] * 1.05

    def test_plan_construction_overhead(self, e1):
        assert 55 <= e1["plan_rpc_requests"] <= 75
        assert 0.1 <= e1["plan_rpc_cost_s"] <= 0.8

    def test_driver_generation_under_1ms(self, e1):
        assert e1["driver_gen_ms"] < 1.0

    def test_sweep_monotone(self, e1):
        s = e1["intra_task_sweep_s"]
        assert s[1] > s[2] > s[4] > s[8]

    def test_inc_sweep_slower_than_fixed(self, e1):
        # the gap between IntraTask-Inc and Intra-Task is scheduling delay
        assert e1["intra_task_inc_sweep_s"][4] >= e1["intra_task_sweep_s"][4]


class TestE2IntraStage:
    def test_reduction_near_paper(self, e2):
        # paper: 73.71 % — our stricter streaming backpressure caps the
        # overlap, so accept the 60–80 band
        assert 60.0 <= e2["q3"]["reduction_pct"] <= 80.0

    def test_stage_tuning_beats_task_tuning(self, e1, e2):
        # the paper's headline ordering: intra-stage (194.76 s) beats
        # intra-task (307.87 s)
        assert e2["q3"]["tuned_s"] < e1["tuned_s"]

    def test_t_build_proportional_to_build_side(self, e2):
        # paper: S3 ~2.991 s (small build), S1 ~14.11 s (larger build)
        tb = e2["q3"]["t_build_avg_s"]
        assert tb[3] == pytest.approx(2.991, rel=0.25)
        assert tb[1] == pytest.approx(14.11, rel=0.25)
        assert tb[1] > tb[3]

    def test_last_request_rejected_by_filter(self, e2):
        assert len(e2["q3"]["rejected"]) == 1
        assert "waste" in e2["q3"]["rejected"][0]

    def test_other_queries_improve(self, e2):
        for name, o in e2["other_queries"].items():
            assert o["reduction_pct"] > 25.0, name


class TestE3DopSwitching:
    def test_baseline_near_paper(self, e3):
        assert e3["baseline_s"] == pytest.approx(1331.991, rel=0.05)

    def test_reduction_near_paper(self, e3):
        # paper: 56.16 %
        assert 45.0 <= e3["reduction_pct"] <= 65.0

    def test_table2_rows(self, e3):
        rows = e3["table2"]
        assert [r["DOP switching"] for r in rows] == ["2 -> 4", "4 -> 6", "6 -> 8"]

    def test_table2_values_near_paper(self, e3):
        for got, want in zip(e3["table2"], e3["paper"]["table2"]):
            assert got["Total time"] == pytest.approx(want["Total time"], rel=0.25)
            assert got["Shuffle time"] == pytest.approx(want["Shuffle time"], rel=0.3)
            assert got["Build time"] == pytest.approx(want["Build time"], rel=0.25)

    def test_table2_monotone_decreasing(self, e3):
        totals = [r["Total time"] for r in e3["table2"]]
        assert totals == sorted(totals, reverse=True)

    def test_fourth_request_rejected(self, e3):
        assert len(e3["rejected"]) == 1

    def test_probe_never_pauses(self, e3):
        # Fig. 26: probing continues while the new task group builds
        for c in e3["probe_continuity"]:
            assert c["bytes_during_rebuild"] > 1e9

    def test_tuning_latency_tens_of_ms(self, e3):
        assert e3["tuning_latency_avg_s"] < 0.15


class TestE4ElasticShuffle:
    def test_baseline_near_paper(self, e4):
        assert e4["baseline_s"] == pytest.approx(45.22, rel=0.15)

    def test_reduction_near_paper(self, e4):
        # paper: 33.19 %
        assert 20.0 <= e4["reduction_pct"] <= 45.0

    def test_scan_is_network_bound_at_baseline(self, e4):
        assert 2 in e4["baseline_network_bottlenecks"]

    def test_throughput_grows_then_plateaus(self, e4):
        # §6.4.2: effect of further increases becomes insignificant once
        # the bottleneck shifts from the shuffle stage to the join
        s = e4["s1_throughput_by_shuffle_dop_mb_s"]
        assert s[2] > 150
        assert s[3] > s[2]
        assert s[5] == pytest.approx(s[4], rel=0.1)

    def test_bottleneck_shifts_off_shuffle_stage(self, e4):
        shift = e4["bottleneck_shift"]
        assert 2 in shift["early_computational"]
        assert 2 not in shift["late_computational"]
        assert 1 in shift["late_computational"]


class TestE5Prediction:
    def test_two_predictions_made(self, e5):
        assert len(e5["predictions"]) == 2
        assert all(p["applied"] for p in e5["predictions"])

    def test_prediction_accuracy(self, e5):
        # paper's errors: 0.85 s and 5.31 s — ours must be comparable
        for p in e5["predictions"]:
            assert p["abs_error_s"] < 8.0

    def test_t_tuning_reflects_build_side(self, e5):
        s3 = next(p for p in e5["predictions"] if p["stage"] == 3)
        s1 = next(p for p in e5["predictions"] if p["stage"] == 1)
        assert s1["t_tuning_s"] > s3["t_tuning_s"] > 0


class TestE6AutoTune:
    def test_q2_meets_target(self, e6):
        assert e6["q2"]["met"]
        # per-scan deadlines: S11 by 50 s, S2 by 100 s (10 % slack)
        assert e6["q2"]["scan_end_s11_s"] <= 55.0
        assert e6["q2"]["scan_end_s2_s"] <= 110.0

    def test_q2_has_reductions(self, e6):
        # Fig. 30a: the tuner releases resources when ahead (RP actions)
        assert any(a["action"].startswith("RP") for a in e6["q2"]["adjustments"])

    def test_q2_rp_latency_is_scheduling_only(self, e6):
        assert 0.0 < e6["q2"]["rp_latency_avg_s"] < 0.1

    def test_q3_meets_target(self, e6):
        assert e6["q3"]["met"]

    def test_q3_new_constraint_honoured(self, e6):
        # §6.5.2: mid-query 30 s constraint on S1 at ~150 s
        assert e6["q3"]["new_constraint_met"]
        late_aps = [a for a in e6["q3"]["adjustments"]
                    if a["t"] >= 150.0 and a["action"].startswith("AP S1")]
        assert late_aps


class TestPaperNumbers:
    def test_fingerprint_matches_reference(self, e1, e2, e3, e4, e5, e6):
        # the E1–E6/T2 numbers the benchmark pins, without a benchmark run
        fp = {}
        for exp, res in zip(("E1", "E2", "E3", "E4", "E5", "E6"), (e1, e2, e3, e4, e5, e6)):
            fp.update(sim_paper.fingerprint(exp, res))
        ref = json.loads(sim_paper.REFERENCE.read_text())
        drifted = {k: (fp.get(k), ref.get(k)) for k in set(fp) | set(ref) if fp.get(k) != ref.get(k)}
        assert sim_paper.reference_drift(fp) == 0, drifted

    def test_rates_match_interval_sums(self, e1, e4):
        # Reference rates from summing each stage's consumption over every
        # 1 s sample interval; rate_at derives them from the cumulative
        # samples instead, which may differ only by rounding.
        assert e1["saturation_thr_before_mb_s"] == pytest.approx(199.99999999995453, rel=1e-9)
        assert e1["saturation_thr_after_mb_s"] == pytest.approx(199.99999999995453, rel=1e-9)
        want = {1: 0.0, 2: 277.7454545454555, 3: 549.0000000000019,
                4: 550.0000000000019, 5: 550.0000000000019}
        assert e4["s1_throughput_by_shuffle_dop_mb_s"] == pytest.approx(want, rel=1e-9)

    def test_experiment_reprs_match_reference(self, e1, e2, e3, e4, e5, e6):
        """Every simulated output, not only the fingerprint: the SHA-1 of
        ``repr(run())`` of each E1–E6 experiment, less the host-timed
        ``driver_gen_ms``, equals the committed reference.

        A change that moves any simulated value must regenerate
        ``tests/data/experiment_repr_sha1.json`` (the hashes this test
        computes) and list every changed field of every changed experiment
        in CHANGES.md.
        """
        results = dict(zip(("E1", "E2", "E3", "E4", "E5", "E6"), (e1, e2, e3, e4, e5, e6)))
        got = {
            exp: hashlib.sha1(repr({k: v for k, v in res.items() if k != "driver_gen_ms"})
                              .encode()).hexdigest()
            for exp, res in results.items()
        }
        ref = json.loads((Path(__file__).parent / "data" / "experiment_repr_sha1.json").read_text())
        assert got == ref
