"""The median, spread and ratio helpers and the call probe."""
import statistics

import pytest

from perfbench.measure import (
    mean_of_medians,
    median,
    quartile_spread,
    ratio,
    repeat_within,
    vm_hwm_mb,
)
from perfbench.probe import Probe


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_median_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        median([])


def test_quartile_spread_matches_statistics_quantiles():
    vals = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 11.5, 9.8]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    assert quartile_spread(vals) == pytest.approx((q3 - q1) / statistics.median(vals))


def test_quartile_spread_of_constant_and_single_samples():
    assert quartile_spread([5.0] * 10) == 0.0
    assert quartile_spread([5.0]) == 0.0


def test_ratio_needs_a_base():
    assert ratio(3.0, 2.0) == 1.5
    with pytest.raises(ZeroDivisionError):
        ratio(1.0, 0.0)


def test_mean_of_medians_weighs_queries_equally():
    # Q2J has three samples, Q3 one: each query's median counts once.
    assert mean_of_medians({"Q2J": [1.0, 2.0, 9.0], "Q3": [4.0]}) == 3.0


def test_vm_hwm_of_self_and_of_a_missing_process():
    assert vm_hwm_mb() > 0
    assert vm_hwm_mb(2**22 + 12345) == 0.0


class _Thing:
    def work(self, x):
        return x * 2


def test_probe_times_and_restores():
    orig = _Thing.__dict__["work"]
    seen = []
    with Probe() as p:
        p.wrap(_Thing, "work", "thing.work", on_result=seen.append)
        assert _Thing().work(3) == 6
        assert _Thing().work(4) == 8
        assert p.calls["thing.work"] == 2
        assert p.secs["thing.work"] > 0
        assert p.mean_us("thing.work") > 0
    assert seen == [6, 8]
    assert _Thing.__dict__["work"] is orig


def test_probe_wrap_factory_times_the_returned_callable():
    class Maker:
        def controller(self):
            return lambda t: t + 1

    p = Probe()
    p.wrap_factory(Maker, "controller", "maker.ctrl")
    ctrl = Maker().controller()
    assert ctrl(1) == 2 and ctrl(2) == 3
    p.restore()
    assert p.calls["maker.ctrl"] == 2


def test_repeat_within_runs_at_least_once_and_stops_in_time():
    import time

    calls = []
    assert repeat_within(0.0, lambda: calls.append(1)) == 1
    n = repeat_within(0.05, lambda: time.sleep(0.01))
    assert 1 <= n <= 5
