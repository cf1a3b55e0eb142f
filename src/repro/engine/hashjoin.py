"""Hash-join runtime elasticity: DOP switching + intermediate data cache (§4.5).

Two join flavours:

* **Broadcast hash join** — every task holds the full build-side hash
  table. Increasing stage DOP just spawns new tasks, each rebuilding the
  full table (in parallel, so the delay is one build, not n); existing
  tasks keep probing uninterrupted. Decreasing is end-page task closure
  with only scheduling overhead.
* **Partitioned hash join** — the hash table is sharded across the task
  group. Accordion's **DOP switching**: the build side first constructs a
  *new* distributed hash table in a *new task group*, fed from the
  **intermediate data cache** (fragment-result cache) rather than by
  re-balancing the old group (re-balancing would stall probes); only when
  construction completes does the probe side switch groups and the old
  group is closed. State-transfer time = reshuffle + build (Table 2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import calibration as cal


@dataclass
class CacheEntry:
    stage_id: int
    bytes: float
    rows: int = 0
    hits: int = 0


@dataclass
class IntermediateDataCache:
    """Fragment-result cache: build-side stages store their output for
    reuse by subsequent hash-table reconstructions (§4.5, Fig. 17)."""

    entries: dict[int, CacheEntry] = field(default_factory=dict)

    def put(self, stage_id: int, bytes_: float, rows: int = 0) -> None:
        self.entries[stage_id] = CacheEntry(stage_id, bytes_, rows)

    def get(self, stage_id: int) -> CacheEntry | None:
        e = self.entries.get(stage_id)
        if e is not None:
            e.hits += 1
        return e

    def __contains__(self, stage_id: int) -> bool:
        return stage_id in self.entries


@dataclass
class StateTransferRecord:
    """One row of Table 2: a DOP switch and its cost decomposition."""

    stage_id: int
    old_dop: int
    new_dop: int
    shuffle_time_s: float
    build_time_s: float

    @property
    def total_time_s(self) -> float:
        return self.shuffle_time_s + self.build_time_s

    def as_row(self) -> dict:
        return {
            "DOP switching": f"{self.old_dop} -> {self.new_dop}",
            "Total time": round(self.total_time_s, 2),
            "Shuffle time": round(self.shuffle_time_s, 2),
            "Build time": round(self.build_time_s, 2),
        }


@dataclass
class RebuildOp:
    """An in-flight hash-table (re)construction for a DOP change."""

    stage_id: int
    old_dop: int
    new_dop: int
    partitioned: bool
    build_bytes: float
    started_at: float
    shuffle_done_at: float
    done_at: float
    #: task ids of the new task group (partitioned) / new tasks (broadcast).
    new_task_ids: list[str] = field(default_factory=list)
    from_cache: bool = True

    @property
    def shuffle_time_s(self) -> float:
        return self.shuffle_done_at - self.started_at

    @property
    def build_time_s(self) -> float:
        return self.done_at - self.shuffle_done_at

    def record(self) -> StateTransferRecord:
        return StateTransferRecord(
            self.stage_id, self.old_dop, self.new_dop,
            self.shuffle_time_s, self.build_time_s,
        )


def _phases_s(
    partitioned: bool, build_bytes: float, new_dop: int, build_rate_mb_s: float,
    rebuild_shuffle_rate_mb_s: float = cal.REBUILD_SHUFFLE_RATE_MB_S,
) -> tuple[float, float]:
    """(reshuffle, build) seconds of a hash-table reconstruction at
    ``new_dop``. A partitioned join's new task group pulls the cached build
    side in parallel and then builds its shards in parallel, so both phases
    scale with ``new_dop`` — exactly the 1/n trend of Table 2. A broadcast
    join has no reshuffle, and its new tasks each build the full table
    concurrently ("hash table reconstruction for multiple tasks occurs in
    parallel", §6.3): one full build, however many tasks are added."""
    if partitioned:
        return (
            build_bytes / (new_dop * cal.mb_s(rebuild_shuffle_rate_mb_s)),
            build_bytes / (new_dop * cal.mb_s(build_rate_mb_s)),
        )
    return 0.0, build_bytes / cal.mb_s(build_rate_mb_s)


def plan_partitioned_switch(
    *,
    stage_id: int,
    old_dop: int,
    new_dop: int,
    build_bytes: float,
    now_s: float,
    rebuild_shuffle_rate_mb_s: float = cal.REBUILD_SHUFFLE_RATE_MB_S,
    build_rate_mb_s: float = cal.BUILD_RATE_MB_S,
) -> RebuildOp:
    """Time a partitioned-join DOP switch: reshuffle, then build."""
    shuffle_t, build_t = _phases_s(
        True, build_bytes, new_dop, build_rate_mb_s, rebuild_shuffle_rate_mb_s
    )
    return RebuildOp(
        stage_id=stage_id,
        old_dop=old_dop,
        new_dop=new_dop,
        partitioned=True,
        build_bytes=build_bytes,
        started_at=now_s,
        shuffle_done_at=now_s + shuffle_t,
        done_at=now_s + shuffle_t + build_t,
    )


def plan_broadcast_rebuild(
    *,
    stage_id: int,
    old_dop: int,
    new_dop: int,
    build_bytes: float,
    now_s: float,
    build_rate_mb_s: float = cal.BUILD_RATE_MB_S,
) -> RebuildOp:
    """Time a broadcast-join DOP increase: one full build, no reshuffle."""
    _, build_t = _phases_s(False, build_bytes, new_dop, build_rate_mb_s)
    return RebuildOp(
        stage_id=stage_id,
        old_dop=old_dop,
        new_dop=new_dop,
        partitioned=False,
        build_bytes=build_bytes,
        started_at=now_s,
        shuffle_done_at=now_s,  # no reshuffle for broadcast
        done_at=now_s + build_t,
    )


def estimate_build_time_s(
    *, partitioned: bool, build_bytes: float, new_dop: int,
    rebuild_shuffle_rate_mb_s: float = cal.REBUILD_SHUFFLE_RATE_MB_S,
    build_rate_mb_s: float = cal.BUILD_RATE_MB_S,
) -> float:
    """T_build as used by the tuning filter (§5.2) and predictor (§5.3):
    the reconstruction's reshuffle plus build time."""
    shuffle_t, build_t = _phases_s(
        partitioned, build_bytes, new_dop, build_rate_mb_s, rebuild_shuffle_rate_mb_s
    )
    return shuffle_t + build_t
