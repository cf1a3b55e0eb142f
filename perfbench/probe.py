"""Call timing by wrapping public entry points of the program.

A :class:`Probe` replaces attributes (module functions or class methods)
with timed wrappers and puts the originals back on :meth:`restore`, so
only the traced part of a run pays for it. Wrapping a class attribute
also times calls through instances created before the wrap.
"""
from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable


class Probe:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.secs: defaultdict[str, float] = defaultdict(float)
        self._undo: list[tuple[Any, str, Any]] = []

    def _timed(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        calls, secs = self.calls, self.secs

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                secs[name] += perf_counter() - t0
                calls[name] += 1
            if on_result is not None:
                on_result(out)
            return out

        return timed

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Callable[[Any], None] | None = None) -> None:
        """Time every call of ``owner.attr`` under ``name``; ``on_result``
        sees each return value (to count outcomes)."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self._timed(name, orig, on_result))

    def wrap_factory(self, owner: Any, attr: str, name: str) -> None:
        """``owner.attr`` returns a callable; time calls of what it returns
        (a controller closure, for instance) under ``name``."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        timed = self._timed

        @functools.wraps(orig)
        def factory(*args, **kwargs):
            return timed(name, orig(*args, **kwargs))

        setattr(owner, attr, factory)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def mean_us(self, name: str) -> float:
        n = self.calls[name]
        return self.secs[name] / n * 1e6 if n else 0.0
