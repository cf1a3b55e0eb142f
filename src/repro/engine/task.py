"""Tasks — the smallest unit of distributed execution (§2).

A task lives on a worker node and runs its fragment on a number of drivers
(the intra-task DOP, §4.3). Each task also keeps the global remote split
set (§4.3) so new drivers can be wired to upstream tasks without the
coordinator.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.splits import RemoteSplit, RemoteSplitSet


@dataclass
class Task:
    """One task of one stage, mapped to a compute node."""

    stage_id: int
    seq: int
    node_id: str
    #: driver count — the task DOP (§4.3).
    dop: int = 1
    remote_splits: RemoteSplitSet = field(default_factory=RemoteSplitSet)

    @property
    def task_id(self) -> str:
        """Paper naming: stage number + task sequence number (task3_2)."""
        return f"task{self.stage_id}_{self.seq}"

    @property
    def url(self) -> str:
        return f"http://{self.node_id}/{self.task_id}"

    def set_dop(self, n: int) -> int:
        """Set the driver count (§4.3: spawn drivers, or close them through
        the end-page relay); returns it."""
        self.dop = n
        return n

    # ----------------------------------------------------------- split wiring
    def add_upstream(self, split: RemoteSplit) -> None:
        self.remote_splits.add(split)

    def drop_upstream_task(self, task_id: str) -> None:
        """§4.4 decreasing stage DOP: parents delete the closed task's RPC
        address after receiving its end pages."""
        self.remote_splits.remove_task(task_id)

    def upstream_addresses(self) -> list[RemoteSplit]:
        return self.remote_splits.addresses()
