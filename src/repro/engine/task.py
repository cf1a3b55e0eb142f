"""Tasks — the smallest unit of distributed execution (§2).

A task lives on a worker node and runs its fragment on a number of drivers
(the intra-task DOP, §4.3). Its upstream tasks are its children's live
tasks, read through the buffer ids it holds in their output buffers.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Task:
    """One task of one stage, mapped to a compute node."""

    stage_id: int
    seq: int
    node_id: str
    #: driver count — the task DOP (§4.3).
    dop: int = 1

    @property
    def task_id(self) -> str:
        """Paper naming: stage number + task sequence number (task3_2)."""
        return f"task{self.stage_id}_{self.seq}"

    def set_dop(self, n: int) -> int:
        """Set the driver count (§4.3: spawn drivers, or close them through
        the end-page relay); returns it."""
        self.dop = n
        return n
