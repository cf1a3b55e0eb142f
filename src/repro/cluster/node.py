"""Simulated cluster nodes.

The paper's testbed is 21 AWS EC2 c5.2xlarge instances (8 vCPU, 16 GB RAM,
10 Gbps NIC): 1 coordinator, 10 storage nodes, 10 compute nodes (§6.1).
A :class:`Node` models exactly the quantities the evaluation depends on:
core count (CPU saturation — why the paper's "third adjustment for stage 1
does not enhance throughput") and driver occupancy (the predictor's ``n_f``
cap, §5.3). The network is not modelled per NIC: shuffle throughput is
capped per task (``StageCost.out_shuffle_rate_mb_s``, §6.4.2).
"""
from __future__ import annotations

from dataclasses import dataclass

#: Roles a node can play in the simulated cluster.
COORDINATOR = "coordinator"
COMPUTE = "compute"
STORAGE = "storage"


@dataclass
class Node:
    """One simulated machine.

    ``active_drivers`` counts driver threads currently scheduled here; when
    it exceeds ``cores``, every driver's effective rate is scaled by
    ``cpu_scale()`` — time-sliced cores, the mechanism behind DOP-increase
    saturation in §6.2.
    """

    node_id: str
    role: str = COMPUTE
    cores: int = 8
    nic_gbps: float = 10.0
    active_drivers: int = 0

    def cpu_scale(self) -> float:
        """Per-driver rate multiplier: 1.0 until cores are oversubscribed."""
        if self.active_drivers <= self.cores:
            return 1.0
        return self.cores / self.active_drivers

    def cpu_utilization(self) -> float:
        """Fraction of cores busy (1.0 = saturated)."""
        if self.cores == 0:
            return 1.0
        return min(1.0, self.active_drivers / self.cores)

    def cpu_headroom_factor(self) -> float:
        """Max factor by which this node's throughput could still grow.

        Used by the predictor (§5.3): "we can use the remaining CPU
        resources and the current CPU utilization of the upstream stage to
        estimate a maximum n_f".
        """
        util = self.cpu_utilization()
        if util <= 0.0:
            return float(self.cores)
        return 1.0 / util

    def nic_bytes_per_s(self) -> float:
        """NIC capacity in bytes/second (10 Gbps -> 1.25 GB/s)."""
        return self.nic_gbps * 1e9 / 8.0

    def add_drivers(self, n: int) -> None:
        self.active_drivers += n

    def remove_drivers(self, n: int) -> None:
        self.active_drivers = max(0, self.active_drivers - n)
