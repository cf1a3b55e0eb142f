"""Simulated cluster: topology and task placement.

``Cluster.presto_testbed()`` reproduces the paper's §6.1 deployment. Task
placement is round-robin over compute nodes, matching Presto's node
scheduler behaviour for a mostly idle cluster; the scheduler pins
scan-stage tasks to named storage nodes instead where a query asks (the
elastic-shuffle experiment stores ``orders`` on exactly two nodes to
provoke a shuffle bottleneck, §6.4.2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.node import COMPUTE, COORDINATOR, STORAGE, Node


@dataclass
class Cluster:
    """A set of nodes plus placement state."""

    nodes: list[Node] = field(default_factory=list)
    _rr_next: int = 0
    #: node id -> node; ``nodes`` is fixed once the cluster is built.
    _by_id: dict[str, Node] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_id = {n.node_id: n for n in self.nodes}

    # ------------------------------------------------------------------ build
    @classmethod
    def presto_testbed(
        cls,
        *,
        n_compute: int = 10,
        n_storage: int = 10,
        cores: int = 8,
    ) -> "Cluster":
        """The paper's cluster: 1 coordinator + 10 storage + 10 compute."""
        nodes = [Node("coord", COORDINATOR, cores)]
        nodes += [Node(f"storage{i}", STORAGE, cores) for i in range(n_storage)]
        nodes += [Node(f"compute{i}", COMPUTE, cores) for i in range(n_compute)]
        return cls(nodes=nodes)

    # ---------------------------------------------------------------- lookups
    @property
    def coordinator(self) -> Node:
        return next(n for n in self.nodes if n.role == COORDINATOR)

    def compute_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.role == COMPUTE]

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    # -------------------------------------------------------------- placement
    def place_task(self) -> Node:
        """Choose a compute node for a new task, round-robin."""
        cn = self.compute_nodes()
        if not cn:
            raise RuntimeError("cluster has no compute nodes")
        n = cn[self._rr_next % len(cn)]
        self._rr_next += 1
        return n
