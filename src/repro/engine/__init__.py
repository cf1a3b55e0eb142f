"""Presto-style execution engine substrate + Accordion's runtime elasticity.

Layering (bottom-up): splits -> plan (fragments/stage tree) -> tasks
(driver counts)/stages (task lists, the only topology record) -> scheduler
(static + dynamic) -> hashjoin (DOP switching) -> exec_sim (byte-flow
timing data plane). ``exec_sim.SimExecutor`` implements the data-plane
contract that ``repro.core.runtime_info`` declares, so it is the one
engine module that imports ``repro.core``; no ``repro.core`` module
imports it, and this package imports no submodule eagerly. The Spark data
plane is ``repro.spark_iqre``.
"""
