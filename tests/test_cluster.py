"""Tests for the simulated cluster substrate (repro.cluster)."""
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


class TestNode:
    def test_cpu_scale_under_subscription(self):
        n = Node("n0", cores=8)
        n.add_drivers(4)
        assert n.cpu_scale() == 1.0

    def test_cpu_scale_oversubscribed(self):
        n = Node("n0", cores=8)
        n.add_drivers(16)
        assert n.cpu_scale() == pytest.approx(0.5)

    def test_cpu_utilization_saturates_at_one(self):
        n = Node("n0", cores=8)
        n.add_drivers(20)
        assert n.cpu_utilization() == 1.0

    def test_cpu_headroom(self):
        n = Node("n0", cores=8)
        n.add_drivers(2)
        assert n.cpu_headroom_factor() == pytest.approx(4.0)

    def test_cpu_headroom_idle(self):
        n = Node("n0", cores=8)
        assert n.cpu_headroom_factor() == 8.0

    def test_nic_bytes_per_s(self):
        n = Node("n0", nic_gbps=10.0)
        assert n.nic_bytes_per_s() == pytest.approx(1.25e9)

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
        assert len(c.storage_nodes()) == 10

    def test_testbed_node_specs_match_c5_2xlarge(self):
        c = Cluster.presto_testbed()
        for n in c.nodes:
            assert n.cores == 8
            assert n.nic_gbps == 10.0

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
        c = Cluster.presto_testbed()
        picked = c.place_tasks(3, pinned=["storage0", "storage1"])
        assert [n.node_id for n in picked] == ["storage0", "storage1", "storage0"]

    def test_node_lookup_error(self):
        c = Cluster.presto_testbed()
        with pytest.raises(KeyError):
            c.node("nonexistent")

    def test_storage_roles(self):
        c = Cluster.presto_testbed()
        assert all(n.role == STORAGE for n in c.storage_nodes())


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
