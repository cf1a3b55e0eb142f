"""Simulated cloud cluster substrate (paper §6.1 testbed)."""
from repro.cluster.cluster import Cluster
from repro.cluster.node import COMPUTE, COORDINATOR, STORAGE, Node
from repro.cluster.rpc import RpcModel

__all__ = [
    "Cluster",
    "Node",
    "RpcModel",
    "COMPUTE",
    "COORDINATOR",
    "STORAGE",
]
