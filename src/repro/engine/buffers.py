"""Task output buffers (§4.2.1, Fig. 10).

Accordion redistributes responsibility to the task output buffer: it does
data distribution, shuffling, and parallelism-variation adaptation, so a
downstream DOP change only touches the buffers, not drivers/operators.

The byte flow itself is simulated in ``exec_sim``; what this module keeps
is the topology the scheduler maintains: one buffer id per downstream task,
grouped into **buffer-ID groups**. A shuffle buffer hash-partitions its
output across a group (one shuffle executor per id) and its groups are the
downstream **task groups** — the unit of §4.5 DOP switching. A shared
buffer hands pages round-robin to whoever asks, so it has a single group.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OutputBuffer:
    """One stage's output buffer: the shuffle flag plus buffer-ID groups."""

    shuffle: bool = False
    groups: list[list[int]] = field(default_factory=list)

    @property
    def buffer_ids(self) -> list[int]:
        return [bid for g in self.groups for bid in g]

    def add_id(self, buffer_id: int, *, new_group: bool = False) -> None:
        """Register a downstream task; ``new_group`` opens a fresh task
        group for it (shuffle buffers only: §4.5 builds the new distributed
        hash table in a new group while the old one keeps probing)."""
        if buffer_id in self.buffer_ids:
            raise ValueError(f"duplicate buffer id {buffer_id}")
        if new_group or not self.groups:
            self.groups.append([buffer_id])
        else:
            self.groups[-1].append(buffer_id)

    def remove_id(self, buffer_id: int) -> None:
        """Drop a retired downstream task; a group left empty is retired."""
        for g in self.groups:
            if buffer_id in g:
                g.remove(buffer_id)
                if not g:
                    self.groups.remove(g)
                return
        raise KeyError(f"unknown buffer id {buffer_id}")
