"""The what-if service: stage remaining-time prediction (§5.2–§5.3).

Progress of a stage is read from the table-scan stage upstream of its
probe side — sufficient because execution is streaming: intermediate
stages consume scan output at their own pace, so the scan's consumption
rate approximates overall progress (§5.2). The prediction follows the
paper's worked example (§6.5.1):

    T_remain    = V_remain / R_consume                  (scan progress)
    T_predicted = (T_remain - T_tuning) / n_f + T_tuning

with ``T_tuning ≈ 0`` for join-free stages and ``≈ T_build`` (hash-table
reconstruction) for join stages. (§5.3 prints the formula without the
trailing ``+ T_tuning``; the §6.5.1 worked example — (49.68-2.4)/4 + 2.4 —
includes it, and we follow the example.)

``n_f`` cannot be arbitrary: it is capped by the upstream stage's output
capacity over its recent output rate, both read from the runtime snapshot.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runtime_info import DataPlane, QueryInfo, RuntimeInfoCollector
from repro.engine.hashjoin import rebuild_phases_s
from repro.engine.plan import StageTree


def probe_scan_stage(tree: StageTree, stage_id: int) -> int:
    """The table-scan stage feeding ``stage_id``'s probe/main input chain."""
    sid = stage_id
    while not tree[sid].is_scan:
        src = tree[sid].main_source
        if src is None:
            raise ValueError(f"stage {stage_id} has no scan ancestry")
        sid = src.child_stage_id
    return sid


@dataclass
class Prediction:
    """One what-if answer."""

    stage_id: int
    scan_stage_id: int
    current_dop: int
    requested_dop: int
    n_f: float            # applied speedup factor (after the CPU cap)
    n_f_max: float        # cap from upstream CPU headroom
    t_remain_s: float     # at current parallelism
    t_tuning_s: float     # ~0, or T_build for join stages
    t_predicted_s: float


@dataclass
class WhatIfService:
    """Prediction backend of the auto-tuner (Fig. 8's Predictor).

    Every method reads one runtime snapshot, ``info``, collected on the
    spot when the caller passes none."""

    plane: DataPlane
    collector: RuntimeInfoCollector = field(init=False)

    def __post_init__(self) -> None:
        self.collector = RuntimeInfoCollector(self.plane)

    def snapshot(self, info: QueryInfo | None = None) -> QueryInfo:
        """``info``, or a fresh snapshot when it is None."""
        return self.collector.collect() if info is None else info

    # ------------------------------------------------------------- internals
    def remaining_time_s(self, stage_id: int, info: QueryInfo | None = None) -> float:
        """T_remain of a stage from its probe-side scan progress (§5.2)."""
        scan = self.snapshot(info)[probe_scan_stage(self.plane.tree, stage_id)]
        if scan.recent_rate_bytes_s <= 0.0:
            return float("inf")
        return scan.remaining_bytes / scan.recent_rate_bytes_s

    def build_time_s(self, stage_id: int, new_dop: int, info: QueryInfo | None = None) -> float:
        """T_build for a hash-table reconstruction at ``new_dop`` (§5.2)."""
        frag = self.plane.tree[stage_id]
        if not frag.has_join:
            return 0.0
        build_bytes = self.snapshot(info)[stage_id].build_bytes
        return sum(rebuild_phases_s(frag.partitioned, build_bytes, new_dop))

    def max_n_f(self, stage_id: int, info: QueryInfo | None = None) -> float:
        """Cap on the speedup factor from the upstream stage's headroom
        (§5.3: "the maximum n_f is influenced by the upstream stage's CPU
        and network utilization" — prevents requests like 'increase
        parallelism by 1000x').

        If the target stage's throughput scales by n_f, its direct
        upstream must produce n_f times faster; the most it can produce,
        without itself being retuned, is its current tasks/drivers running
        at full CPU speed (and within any shuffle-executor cap). The ratio
        of that peak to its current output rate bounds n_f.
        """
        frag = self.plane.tree[stage_id]
        cores = float(self.plane.node_cores)
        if frag.is_scan:
            # a scan's upstream is storage, which Table 1 spreads wide
            # enough not to bind; the per-node core count caps n_f instead
            return cores
        if frag.main_source is None:
            return 1.0
        up = frag.main_source.child_stage_id
        s = self.snapshot(info)[up]
        cur = s.recent_rate_bytes_s * self.plane.selectivity(up)
        if cur <= 0.0:
            return cores
        return max(1.0, s.output_capacity_bytes_s / cur)

    # --------------------------------------------------------------- queries
    def predict(self, stage_id: int, new_dop: int, info: QueryInfo | None = None) -> Prediction:
        """Estimate the stage's remaining time if its DOP became ``new_dop``."""
        info = self.snapshot(info)
        cur = info[stage_id].dop
        t_remain = self.remaining_time_s(stage_id, info)
        requested_nf = new_dop / max(1, cur)
        nf_max = self.max_n_f(stage_id, info)
        # §5.3: if requested n < n_f_max use it, else fall back to the cap.
        n_f = requested_nf if requested_nf < nf_max else nf_max
        n_f = max(n_f, 1e-9)
        t_tuning = self.build_time_s(stage_id, new_dop, info) if new_dop > cur else 0.0
        if t_remain == float("inf"):
            t_pred = float("inf")
        else:
            t_pred = (t_remain - t_tuning) / n_f + t_tuning
        return Prediction(
            stage_id=stage_id,
            scan_stage_id=probe_scan_stage(self.plane.tree, stage_id),
            current_dop=cur,
            requested_dop=new_dop,
            n_f=n_f,
            n_f_max=nf_max,
            t_remain_s=t_remain,
            t_tuning_s=t_tuning,
            t_predicted_s=t_pred,
        )

    def dop_time_list(
        self, stage_id: int, dops: list[int], info: QueryInfo | None = None
    ) -> list[Prediction]:
        """§5.4: the DOP–time list the auto-tuner picks from."""
        info = self.snapshot(info)
        return [self.predict(stage_id, d, info) for d in dops]
