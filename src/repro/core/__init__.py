"""Accordion's IQRE control plane: runtime info, bottleneck localization,
what-if prediction, request filtering, auto-tuning, and the script
executor (paper §3 and §5)."""
from repro.core.bottleneck import computational_bottlenecks, network_bottlenecks
from repro.core.filter import STAGE, TASK, TuningRequest, TuningRequestFilter
from repro.core.predictor import Prediction, WhatIfService, probe_scan_stage
from repro.core.runtime_info import (
    QueryInfo,
    RuntimeInfoCollector,
    StageInfo,
    TaskInfo,
    consumed_between,
    rate_at,
)
from repro.core.script import ScriptAction, ScriptExecutor, parse_script
from repro.core.tuner import AutoTuner, TuningUnit, build_tuning_units

__all__ = [
    "computational_bottlenecks",
    "network_bottlenecks",
    "TuningRequest",
    "TuningRequestFilter",
    "STAGE",
    "TASK",
    "Prediction",
    "WhatIfService",
    "probe_scan_stage",
    "QueryInfo",
    "RuntimeInfoCollector",
    "StageInfo",
    "TaskInfo",
    "consumed_between",
    "rate_at",
    "ScriptAction",
    "ScriptExecutor",
    "parse_script",
    "AutoTuner",
    "TuningUnit",
    "build_tuning_units",
]
