"""Runtime bottleneck localization (§5.1).

A stage that is *not* a computational bottleneck processes pages faster
than its upstream produces them, so its exchange buffers keep running
empty and the elastic-buffer turn-up counters keep incrementing. A
bottleneck stage's buffers stay populated — its turn-up counter stays flat
between two collector snapshots. The coordinator walks the stage info tree
and flags stages whose counters did not move.

Non-computational (network) bottlenecks are flagged from the shuffle-path
saturation signal (stages bound by their per-task shuffle cap), which
stands in for the coordinator's NIC-utilization check.
"""
from __future__ import annotations

from repro.core.runtime_info import QueryInfo
from repro.engine.plan import StageTree


def computational_bottlenecks(tree: StageTree, prev: QueryInfo, cur: QueryInfo) -> list[int]:
    """Stage ids whose turn-up counter stayed flat between snapshots.

    Scan stages are excluded — they have no exchange (input) buffer; their
    pace is read from table-scan progress instead (§5.2).
    """
    out: list[int] = []
    for sid, s in cur.stages.items():
        if s.finished or tree[sid].is_scan:
            continue
        if sid not in prev.stages:
            continue
        if s.consumed_bytes - prev.stages[sid].consumed_bytes < 1e6:
            # not meaningfully processing (still building, or consuming a
            # trickle far below page granularity) — not a bottleneck
            continue
        if s.turn_up_counter == prev.stages[sid].turn_up_counter:
            out.append(sid)
    return sorted(out)


def network_bottlenecks(cur: QueryInfo) -> list[int]:
    """Stages whose output is shuffle/NIC bound rather than CPU bound."""
    return sorted(
        sid for sid, s in cur.stages.items() if s.shuffle_bound and not s.finished
    )
