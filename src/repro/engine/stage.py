"""Stages — fragments scheduled as task sets.

A stage's DOP is its task count (§2); intra-task DOP is the per-task
driver count. The stages' task lists are the simulator's whole topology:
a parent reads every live task of its children, so the buffer-ID groups of
§4.2.1 and the remote split sets of §4.3 are read from them, not stored.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.plan import Fragment
from repro.engine.task import Task


@dataclass
class Stage:
    """One execution stage: a fragment plus its scheduled tasks."""

    stage_id: int
    fragment: Fragment
    tasks: list[Task] = field(default_factory=list)
    _next_seq: int = 0

    @property
    def dop(self) -> int:
        """Stage DOP = number of tasks (§2 Challenges)."""
        return len(self.tasks)

    @property
    def task_dop(self) -> int:
        """Drivers per task (uniform across tasks by construction)."""
        return self.tasks[0].dop if self.tasks else 0

    def new_task(self, node_id: str) -> Task:
        t = Task(self.stage_id, self._next_seq, node_id)
        self._next_seq += 1
        self.tasks.append(t)
        return t

    def remove_task(self, task: Task) -> None:
        self.tasks.remove(task)
