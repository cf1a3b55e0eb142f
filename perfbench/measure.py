"""Small measurement helpers shared by every workload: medians, spreads,
ratios with their base, and peak resident memory from ``/proc``."""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


def median(values: list[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives
    them. A sample of one has no spread."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def ratio(num: float, den: float) -> float:
    """``num / den``; a zero base is an error, not a silent zero."""
    if den == 0:
        raise ZeroDivisionError(f"ratio {num} / 0 has no base")
    return num / den


def mean_of_medians(samples: dict[str, list[float]]) -> float:
    """Mean over keys (queries) of each key's median, so every query
    weighs the same whatever its sample count."""
    if not samples:
        raise ValueError("no samples")
    return sum(median(v) for v in samples.values()) / len(samples)


def repeat_within(seconds: float, once: Callable[[], None]) -> int:
    """Call ``once`` at least once, and again while the next call is
    expected to end within ``seconds`` of the first; returns the count."""
    t0 = perf_counter()
    n = 0
    while True:
        once()
        n += 1
        if (perf_counter() - t0) * (n + 1) / n > seconds:
            return n


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB; 0 if the
    process is gone or the kernel does not report it."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class Outcome:
    """What one workload run hands back to the runner.

    Metric values are ``(value, unit)``; ``report`` holds human-readable
    lines printed before the final JSON line.
    """

    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: raw samples and fingerprints, written to the run's result file.
    extra: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)
