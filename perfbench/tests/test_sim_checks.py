"""The paper-shape checks of benchmarks/bench_*.py as the runner applies
them, and how sim-paper counts failed operations."""
import pytest

from perfbench import sim_paper
from perfbench.measure import Outcome

CHECKS = sim_paper.CHECKS


@pytest.mark.parametrize("exp,good,bad", [
    ("E1", {"reduction_pct": 45.1}, {"reduction_pct": 45.0}),
    ("E2", {"q3": {"reduction_pct": 60.1}}, {"q3": {"reduction_pct": 60.0}}),
    ("E3", {"table2": [1, 2, 3], "reduction_pct": 45.1},
     {"table2": [1, 2], "reduction_pct": 50.0}),
    ("E4", {"reduction_pct": 20.1}, {"reduction_pct": 20.0}),
    ("E5", {"predictions": [{"abs_error_s": 7.9}]}, {"predictions": [{"abs_error_s": 8.0}]}),
    ("E6", {"q2": {"met": True}, "q3": {"met": True}},
     {"q2": {"met": True}, "q3": {"met": False}}),
])
def test_thresholds_match_the_pytest_benchmark_assertions(exp, good, bad):
    assert CHECKS[exp](good)
    assert not CHECKS[exp](bad)


class _Raises:
    @staticmethod
    def run():
        raise RuntimeError("boom")


class _Weak:
    @staticmethod
    def run():
        return {"baseline_s": 50.0, "tuned_s": 45.0, "reduction_pct": 10.0,
                "switch_latency_avg_s": 0.01}


def test_raising_and_failing_experiments_count_as_failed(monkeypatch):
    monkeypatch.setitem(sim_paper.EXPERIMENTS, "E1", _Raises)
    monkeypatch.setitem(sim_paper.EXPERIMENTS, "E4", _Weak)
    oc = Outcome()
    ps = sim_paper.run_pass(["E1", "E4"], oc, traced=False)
    assert (oc.attempted, oc.failed) == (2, 2)
    assert list(ps.fingerprint) == ["E4"]
    assert ps.fingerprint["E4"]["paper.E4.reduction_pct"] == 10.0


def test_traced_pass_restores_every_wrapped_entry_point():
    from repro.engine import exec_sim
    from repro.engine.exec_sim import SimExecutor

    before = (dict(vars(SimExecutor)), exec_sim.schedule_query)
    oc = Outcome()
    ps = sim_paper.run_pass(["E5"], oc, traced=True)
    assert oc.failed == 0
    assert ps.probe.calls["engine.exec_sim.step"] > 0
    assert ps.probe.calls["core.predictor.predict"] == 2
    assert (dict(vars(SimExecutor)), exec_sim.schedule_query) == before
