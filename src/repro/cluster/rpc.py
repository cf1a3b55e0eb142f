"""RESTful control-plane cost model.

§6.2: "The initial query plan construction for Q3 involves 65 RESTful
requests, incurring a total cost of 313 ms (each RESTful request in
Accordion takes between 1 and 10 ms)." Scheduling overhead in Accordion is
requests x per-request latency; this model draws deterministic per-request
costs in that measured range.

The draws are numpy's ``default_rng(seed).uniform(min_ms, max_ms)`` stream,
reproduced bit for bit on the standard library: ``SeedSequence`` seeding
(NEP 19), PCG64's 128-bit LCG with XSL-RR output (O'Neill, HMC-CS-2014-0905)
and numpy's 53-bit double. Every RPC-derived number (plan cost, init time,
control latency, the E1/E3/E4 timings) is a sum of these draws, so a
different generator such as ``random.Random`` would move them all; this one
keeps them identical while the simulator plane loads no numpy.
``tests/test_cluster.py::TestRpc`` checks the stream against numpy.
"""
from __future__ import annotations

from dataclasses import dataclass

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_state(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as the 128-bit
    (state, increment) pair PCG64 seeds from."""
    if seed < 0:
        raise ValueError(f"RPC seed must be non-negative, got {seed}")
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    words, hash_const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    w = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


@dataclass
class RpcModel:
    """Deterministic (seeded) RESTful request latency model."""

    min_ms: float = 1.0
    max_ms: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        # PCG64 seeding: step from 0, add the state seed, step again.
        state, inc = _seed_sequence_state(self.seed)
        self._inc = (inc << 1 | 1) & _M128
        self._state = ((self._inc + state) * _PCG64_MULT + self._inc) & _M128

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG64_MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def request_cost_s(self) -> float:
        """Latency of a single RESTful request, in seconds."""
        u = (self._next64() >> 11) * 2.0**-53
        return (self.min_ms + (self.max_ms - self.min_ms) * u) / 1e3

    def batch_cost_s(self, n_requests: int) -> float:
        """Total latency of ``n_requests`` issued sequentially."""
        return sum(self.request_cost_s() for _ in range(n_requests))
