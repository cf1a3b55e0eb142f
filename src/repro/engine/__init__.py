"""Presto-style execution engine substrate + Accordion's runtime elasticity.

Layering (bottom-up): splits -> plan (fragments/stage tree) -> buffers
(output-buffer ID groups) -> tasks (driver counts)/stages -> scheduler
(static + dynamic) -> hashjoin (DOP switching) -> exec_sim (byte-flow
timing data plane). The Spark data plane is ``repro.spark_iqre``.
"""
from repro.engine.exec_sim import SimExecutor, SimQuery, StageCost, TuningOutcome
from repro.engine.plan import StageTree, fragment_plan

__all__ = [
    "SimExecutor",
    "SimQuery",
    "StageCost",
    "TuningOutcome",
    "StageTree",
    "fragment_plan",
]
