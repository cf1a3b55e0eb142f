"""Simulated cluster: topology and task placement.

``Cluster.presto_testbed()`` reproduces the paper's §6.1 deployment. Task
placement is round-robin over compute nodes, matching Presto's node
scheduler behaviour for a mostly idle cluster; scan-stage tasks may be
pinned to storage nodes (the elastic-shuffle experiment stores ``orders``
on exactly two nodes to provoke a shuffle bottleneck, §6.4.2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.node import COMPUTE, COORDINATOR, STORAGE, Node


@dataclass
class Cluster:
    """A set of nodes plus placement state."""

    nodes: list[Node] = field(default_factory=list)
    _rr_next: int = 0

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

    def storage_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.role == STORAGE]

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(node_id)

    # -------------------------------------------------------------- placement
    def place_task(self, *, pinned: str | None = None) -> Node:
        """Choose a node for a new task.

        ``pinned`` pins to a named node (scan tasks co-located with their
        table's storage nodes); otherwise round-robin over compute nodes.
        """
        if pinned is not None:
            return self.node(pinned)
        cn = self.compute_nodes()
        if not cn:
            raise RuntimeError("cluster has no compute nodes")
        n = cn[self._rr_next % len(cn)]
        self._rr_next += 1
        return n

    def place_tasks(self, count: int, *, pinned: list[str] | None = None) -> list[Node]:
        """Place ``count`` tasks; cycles through ``pinned`` node ids if given."""
        if pinned:
            return [self.node(pinned[i % len(pinned)]) for i in range(count)]
        return [self.place_task() for _ in range(count)]
