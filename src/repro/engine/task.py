"""Tasks — the smallest unit of distributed execution (§2).

A task lives on a worker node and runs its fragment on a number of drivers
(the intra-task DOP, §4.3). Its upstream tasks — §4.3's remote split set —
are its child stages' live tasks, read from their task lists, not stored.
A task's driver count changes only through ``QueryExecution``, which keeps
the node's driver count in step.
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
