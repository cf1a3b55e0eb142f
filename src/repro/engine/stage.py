"""Stages — fragments scheduled as task sets.

A stage's DOP is its task count (§2); intra-task DOP is the per-task
driver count.
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
        t = Task(self.stage_id, self._next_seq, node_id, self.fragment)
        self._next_seq += 1
        self.tasks.append(t)
        return t

    def remove_task(self, task: Task) -> None:
        self.tasks.remove(task)

    def task_by_id(self, task_id: str) -> Task:
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise KeyError(task_id)

    def total_drivers(self) -> int:
        return sum(t.dop for t in self.tasks)

    def set_task_dop(self, n: int) -> None:
        for t in self.tasks:
            t.set_dop(n)

    def node_ids(self) -> list[str]:
        return [t.node_id for t in self.tasks]
