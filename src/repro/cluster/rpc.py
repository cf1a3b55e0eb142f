"""RESTful control-plane cost model.

§6.2: "The initial query plan construction for Q3 involves 65 RESTful
requests, incurring a total cost of 313 ms (each RESTful request in
Accordion takes between 1 and 10 ms)." Scheduling overhead in Accordion is
requests x per-request latency; this model draws deterministic per-request
costs in that measured range.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RpcModel:
    """Deterministic (seeded) RESTful request latency model."""

    min_ms: float = 1.0
    max_ms: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def request_cost_s(self) -> float:
        """Latency of a single RESTful request, in seconds."""
        return float(self._rng.uniform(self.min_ms, self.max_ms)) / 1e3

    def batch_cost_s(self, n_requests: int) -> float:
        """Total latency of ``n_requests`` issued sequentially."""
        return sum(self.request_cost_s() for _ in range(n_requests))
