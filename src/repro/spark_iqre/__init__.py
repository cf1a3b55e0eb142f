"""IQRE demonstrated on the real Spark runtime (micro-batch DOP changes)."""
from repro.spark_iqre.microbatch import (
    MicrobatchRun,
    run_microbatch,
    script_to_dop_schedule,
)

__all__ = [
    "MicrobatchRun",
    "run_microbatch",
    "script_to_dop_schedule",
]
