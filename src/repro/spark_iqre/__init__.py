"""IQRE demonstrated on the real Spark runtime (micro-batch DOP changes)."""
from repro.spark_iqre.microbatch import (
    SPECS,
    MicrobatchRun,
    MicrobatchSpec,
    run_microbatch,
)

__all__ = [
    "SPECS",
    "MicrobatchRun",
    "MicrobatchSpec",
    "run_microbatch",
]
