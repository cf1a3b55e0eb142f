"""Hash-join runtime elasticity: one model of a hash-table rebuild (§4.5).

A join-stage DOP change rebuilds the hash table from the cached build side
and then moves the probes to the new tasks:

* **Broadcast hash join** — every task holds the full build-side hash
  table. Increasing stage DOP spawns new tasks, each rebuilding the full
  table (in parallel, so the delay is one build, not n); existing tasks
  keep probing uninterrupted. Decreasing is end-page task closure with
  only scheduling overhead.
* **Partitioned hash join** — the hash table is sharded across the task
  group. Accordion's **DOP switching**: the build side first constructs a
  *new* distributed hash table in a *new task group*, fed from the
  **intermediate data cache** (fragment-result cache) rather than by
  re-balancing the old group (re-balancing would stall probes); only when
  construction completes does the probe side switch groups and the old
  group is closed.

The cache is modelled by its cost, not as an object: the reshuffle phase
over the stage's build bytes. :func:`rebuild_phases_s` is the one timing
formula; its sum is the filter's T_build (§5.2) and its phases are
Table 2's shuffle and build columns.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import calibration as cal


def rebuild_phases_s(partitioned: bool, build_bytes: float, new_dop: int) -> tuple[float, float]:
    """(reshuffle, build) seconds of a hash-table reconstruction at
    ``new_dop``. A partitioned join's new task group pulls the cached build
    side in parallel and then builds its shards in parallel, so both phases
    scale with ``new_dop`` — exactly the 1/n trend of Table 2. A broadcast
    join has no reshuffle, and its new tasks each build the full table
    concurrently ("hash table reconstruction for multiple tasks occurs in
    parallel", §6.3): one full build, however many tasks are added."""
    build_rate = cal.mb_s(cal.BUILD_RATE_MB_S)
    if partitioned:
        return (
            build_bytes / (new_dop * cal.mb_s(cal.REBUILD_SHUFFLE_RATE_MB_S)),
            build_bytes / (new_dop * build_rate),
        )
    return 0.0, build_bytes / build_rate


@dataclass
class RebuildOp:
    """One hash-table reconstruction for a DOP change, started at
    ``started_at`` and timed by :func:`rebuild_phases_s`. A finished
    partitioned one is a row of Table 2 (:meth:`as_row`)."""

    stage_id: int
    old_dop: int
    new_dop: int
    partitioned: bool
    build_bytes: float
    started_at: float
    #: the tasks that start probing at ``done_at``: the new task group
    #: (partitioned) or the added tasks (broadcast).
    new_task_ids: list[str] = field(default_factory=list)
    shuffle_done_at: float = field(init=False)
    done_at: float = field(init=False)

    def __post_init__(self) -> None:
        shuffle_s, build_s = rebuild_phases_s(self.partitioned, self.build_bytes, self.new_dop)
        self.shuffle_done_at = self.started_at + shuffle_s
        self.done_at = self.shuffle_done_at + build_s

    @property
    def shuffle_time_s(self) -> float:
        return self.shuffle_done_at - self.started_at

    @property
    def build_time_s(self) -> float:
        return self.done_at - self.shuffle_done_at

    def as_row(self) -> dict:
        total = self.shuffle_time_s + self.build_time_s
        return {
            "DOP switching": f"{self.old_dop} -> {self.new_dop}",
            "Total time": round(total, 2),
            "Shuffle time": round(self.shuffle_time_s, 2),
            "Build time": round(self.build_time_s, 2),
        }
