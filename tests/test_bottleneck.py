"""Tests for runtime bottleneck localization (§5.1)."""
from repro.core import RuntimeInfoCollector
from repro.core.bottleneck import computational_bottlenecks, network_bottlenecks
from repro.engine.exec_sim import SimExecutor
from tests.test_exec_sim import join_query

GB = 1e9


def _two_snapshots(ex, ticks=60):
    c = RuntimeInfoCollector(ex)
    # warm up until probing has begun
    while not ex.states[1].built:
        ex.step()
    for _ in range(20):
        ex.step()
    a = c.collect()
    for _ in range(ticks):
        ex.step()
    b = c.collect()
    return a, b


class TestComputationalBottleneck:
    def test_slow_join_is_bottleneck(self):
        # S1's probe (20 MB/s) is far slower than its upstream scan: its
        # input buffer stays populated -> flat turn-up counter.
        ex = SimExecutor(join_query(probe_bytes=4 * GB, probe_rate=20.0,
                                    partitioned=False))
        a, b = _two_snapshots(ex)
        assert 1 in computational_bottlenecks(ex.tree, a, b)

    def test_downstream_of_bottleneck_not_flagged(self):
        ex = SimExecutor(join_query(probe_bytes=4 * GB, probe_rate=20.0,
                                    partitioned=False))
        a, b = _two_snapshots(ex)
        # S0 starves behind the slow join: its counter keeps climbing.
        assert 0 not in computational_bottlenecks(ex.tree, a, b)

    def test_scan_stages_never_flagged(self):
        ex = SimExecutor(join_query(probe_bytes=4 * GB, probe_rate=20.0,
                                    partitioned=False))
        a, b = _two_snapshots(ex)
        flagged = computational_bottlenecks(ex.tree, a, b)
        assert 2 not in flagged and 3 not in flagged

    def test_finished_stages_excluded(self):
        ex = SimExecutor(join_query(partitioned=False))
        c = RuntimeInfoCollector(ex)
        a = c.collect()
        ex.run()
        b = c.collect()
        assert computational_bottlenecks(ex.tree, a, b) == []

    def test_idle_stage_not_flagged(self):
        # before the build finishes the join processes nothing — it must
        # not be reported as a (computational) bottleneck yet
        ex = SimExecutor(join_query(build_bytes=1 * GB, partitioned=False))
        c = RuntimeInfoCollector(ex)
        for _ in range(10):
            ex.step()
        a = c.collect()
        for _ in range(20):
            ex.step()
        b = c.collect()
        assert 1 not in computational_bottlenecks(ex.tree, a, b)


class TestNetworkBottleneck:
    def test_shuffle_bound_stage_flagged(self):
        from repro.queries.tpch import qshuf_sim

        ex = SimExecutor(qshuf_sim(), stage_dop=2)
        c = RuntimeInfoCollector(ex)
        for _ in range(250):
            ex.step()
        assert 2 in network_bottlenecks(c.collect())

    def test_unbound_query_has_none(self):
        ex = SimExecutor(join_query(partitioned=False))
        c = RuntimeInfoCollector(ex)
        for _ in range(50):
            ex.step()
        assert network_bottlenecks(c.collect()) == []
