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
    active_drivers: int = 0

    def cpu_scale(self) -> float:
        """Per-driver rate multiplier: 1.0 until cores are oversubscribed."""
        if self.active_drivers <= self.cores:
            return 1.0
        return self.cores / self.active_drivers

    def add_drivers(self, n: int) -> None:
        self.active_drivers += n

    def remove_drivers(self, n: int) -> None:
        self.active_drivers = max(0, self.active_drivers - n)
