"""Tests for the simulated cluster substrate (repro.cluster)."""
import numpy as np
import pytest

from repro.cluster import (
    COMPUTE,
    COORDINATOR,
    STORAGE,
    Cluster,
    Node,
    RpcModel,
    calibration as cal,
)
from repro.engine import plan as P
from repro.engine.scheduler import schedule_query


class TestNode:
    def test_cpu_scale_under_subscription(self):
        n = Node("n0", cores=8)
        n.add_drivers(4)
        assert n.cpu_scale() == 1.0

    def test_cpu_scale_oversubscribed(self):
        n = Node("n0", cores=8)
        n.add_drivers(16)
        assert n.cpu_scale() == pytest.approx(0.5)

    def test_remove_drivers_floors_at_zero(self):
        n = Node("n0")
        n.add_drivers(2)
        n.remove_drivers(5)
        assert n.active_drivers == 0


class TestCluster:
    def test_presto_testbed_topology(self):
        c = Cluster.presto_testbed()
        # 1 coordinator + 10 storage + 10 compute = the paper's 21 nodes
        assert len(c.nodes) == 21
        assert c.coordinator.role == COORDINATOR
        assert len(c.compute_nodes()) == 10
        assert sum(n.role == STORAGE for n in c.nodes) == 10

    def test_testbed_node_specs_match_c5_2xlarge(self):
        c = Cluster.presto_testbed()
        for n in c.nodes:
            assert n.cores == 8

    def test_round_robin_placement(self):
        c = Cluster.presto_testbed()
        nodes = [c.place_task().node_id for _ in range(12)]
        assert nodes[0] != nodes[1]
        assert nodes[0] == nodes[10]  # wraps after 10 compute nodes

    def test_placement_only_on_compute(self):
        c = Cluster.presto_testbed()
        for _ in range(25):
            assert c.place_task().role == COMPUTE

    def test_pinned_placement(self):
        # the scheduler cycles a pinned stage's tasks through its nodes
        tree = P.fragment_plan(P.output(P.exchange(P.scan("t"))))
        exe = schedule_query(tree, Cluster.presto_testbed(), stage_dop=3,
                             pinned_nodes={1: ["storage0", "storage1"]})
        assert [t.node_id for t in exe.stages[1].tasks] == ["storage0", "storage1", "storage0"]

    def test_node_lookup_error(self):
        c = Cluster.presto_testbed()
        with pytest.raises(KeyError):
            c.node("nonexistent")

    def test_storage_roles(self):
        c = Cluster.presto_testbed()
        assert all(c.node(f"storage{i}").role == STORAGE for i in range(10))


class TestRpc:
    def test_request_cost_in_measured_range(self):
        # §6.2: each RESTful request takes between 1 and 10 ms.
        m = RpcModel(seed=7)
        for _ in range(100):
            assert 0.001 <= m.request_cost_s() <= 0.010

    def test_deterministic_given_seed(self):
        assert RpcModel(seed=3).batch_cost_s(10) == RpcModel(seed=3).batch_cost_s(10)

    def test_batch_cost_scales(self):
        m = RpcModel(seed=0)
        assert 0.05 <= m.batch_cost_s(50) <= 0.5

    @pytest.mark.parametrize("seed,min_ms,max_ms", [
        (0, 1.0, 10.0), (3, 1.0, 10.0), (7, 1.0, 10.0),
        (2**32 + 5, 1.0, 10.0), (2**128 + 11, 1.0, 10.0), (42, 2.5, 7.0),
    ])
    def test_draws_match_numpy_default_rng(self, seed, min_ms, max_ms):
        # the stdlib PCG64 port reproduces numpy's stream bit for bit, so
        # every RPC-derived paper number is unchanged (seeds above 2**32 and
        # 2**128 take SeedSequence's multi-word entropy paths)
        m = RpcModel(seed=seed, min_ms=min_ms, max_ms=max_ms)
        rng = np.random.default_rng(seed)
        ours = [m.request_cost_s() for _ in range(10_000)]
        assert ours == [float(x) / 1e3 for x in rng.uniform(min_ms, max_ms, 10_000)]

    def test_negative_seed_rejected(self):
        # as numpy's SeedSequence does
        with pytest.raises(ValueError):
            RpcModel(seed=-1)


class TestCalibration:
    def test_build_rate_matches_table2(self):
        # Table 2 derivation: 16.57 GB / 4 tasks / 30.12 s ~ 137 MB/s
        assert cal.BUILD_RATE_MB_S == pytest.approx(16.57e3 / 4 / 30.12, rel=0.05)

    def test_rebuild_shuffle_rate_matches_table2(self):
        assert cal.REBUILD_SHUFFLE_RATE_MB_S == pytest.approx(
            16.57e3 / 4 / 12.55, rel=0.05
        )

    def test_shuffle_exec_rate_matches_qshuf(self):
        # 16.57 GB over 2 nodes in 45.22 s
        assert cal.SHUFFLE_EXEC_RATE_MB_S == pytest.approx(
            16.57e3 / 2 / 45.22, rel=0.05
        )

    def test_units_helper(self):
        assert cal.mb_s(100.0) == 1e8

    def test_buffer_resize_interval_is_paper_500ms(self):
        assert cal.BUFFER_RESIZE_INTERVAL_S == 0.5
