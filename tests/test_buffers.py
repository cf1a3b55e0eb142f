"""Tests for the runtime elastic buffer (§4.2.2) and the cached build side
a rebuild reads (§4.2.1)."""
import ast
from pathlib import Path

import pytest

from repro.core import RuntimeInfoCollector
from repro.engine import plan as P
from repro.engine.exec_sim import (
    DEFAULT_PAGE_BYTES as PAGE,
    ByteElasticBuffer,
    SimExecutor,
    SimQuery,
    StageCost,
)

GB = 1e9


def join_sim(*, partitioned):
    """S0 final <- S1 join <- probe S2 scan a (2 GB), build S3 scan b (0.2 GB)."""
    tree = P.fragment_plan(P.output(P.final_agg(P.exchange(P.hash_join(
        P.exchange(P.scan("a")), P.exchange(P.scan("b")), partitioned=partitioned)))))
    costs = {
        0: StageCost(per_driver_rate_mb_s=400.0),
        1: StageCost(per_driver_rate_mb_s=50.0, selectivity=1e-6),
        2: StageCost(per_driver_rate_mb_s=400.0, scan_bytes=2 * GB),
        3: StageCost(per_driver_rate_mb_s=400.0, scan_bytes=0.2 * GB),
    }
    ex = SimExecutor(SimQuery("join", tree, costs))
    while not ex.states[1].built:
        ex.step()
    return ex


def linear_sim(*, final_rate, scan_rate, sel):
    """S0 final agg <- S1 scan (1 GB) of selectivity ``sel``."""
    tree = P.fragment_plan(P.output(P.final_agg(P.exchange(P.scan("t")))))
    costs = {
        0: StageCost(per_driver_rate_mb_s=final_rate),
        1: StageCost(per_driver_rate_mb_s=scan_rate, selectivity=sel, scan_bytes=1 * GB),
    }
    return SimExecutor(SimQuery("linear", tree, costs))


class TestRuntimeElasticBuffer:
    """``ByteElasticBuffer`` is the runtime elastic buffer the executor runs:
    the consumer resizes it at page granularity (§4.2.2, Fig. 11)."""

    def test_initial_capacity_one_page(self):
        # §4.2.2: "we can initially set all buffer capacities to the size
        # of a page"
        assert ByteElasticBuffer().capacity == PAGE

    def test_offer_respects_capacity(self):
        # the producer ships at most the free space, capacity - level: a
        # fast scan over a slow consumer fills the buffer and then waits
        ex = linear_sim(final_rate=1.0, scan_rate=400.0, sel=1.0)
        buf = ex.states[0].in_buf
        for _ in range(30):
            ex.step()
            assert buf.level <= buf.capacity * (1 + 1e-12)
        assert buf.capacity == PAGE  # never starved, never grew
        assert ex.states[1].consumed <= ex.states[0].consumed + PAGE * (1 + 1e-12)

    def test_end_page_always_fits(self):
        # the end needs no free space: a full buffer still takes it, and the
        # consumer drains the rest without counting a starvation
        b = ByteElasticBuffer(level=PAGE)
        b.ended = True
        assert b.take(2 * PAGE) == PAGE
        assert b.level == 0.0
        assert b.take(PAGE) == 0.0
        assert b.turn_up_counter == 0

    def test_empty_pull_grows_capacity_and_counts_turn_up(self):
        # Fig. 11: consumer finds buffer empty -> grow + count (§5.1 signal)
        b = ByteElasticBuffer()
        assert b.take(100.0) == 0.0
        assert b.turn_up_counter == 1
        assert b.capacity == 2 * PAGE
        b.take(100.0)
        assert b.turn_up_counter == 2
        assert b.capacity == 3 * PAGE

    def test_pull_after_end_does_not_count(self):
        b = ByteElasticBuffer(level=PAGE / 2)
        b.ended = True
        assert b.take(PAGE) == PAGE / 2  # the last bytes
        assert b.take(PAGE) == 0.0  # empty, but ended
        assert b.turn_up_counter == 0
        assert b.capacity == PAGE

    def test_resize_tracks_consumption(self):
        # §4.2.2: every 500 ms capacity tracks recent consumption, shrinking
        # an oversized buffer too
        b = ByteElasticBuffer(capacity=100 * PAGE, level=10 * PAGE)
        b.take(10 * PAGE)
        ByteElasticBuffer.resize_all([b])
        assert b.capacity == pytest.approx(12 * PAGE)

    def test_resize_has_floor_of_one(self):
        # an idle interval shrinks the buffer back to one page, never below
        b = ByteElasticBuffer(capacity=5 * PAGE)
        ByteElasticBuffer.resize_all([b])
        assert b.capacity == PAGE

    def test_resize_waits_for_interval(self):
        # §4.2.2: the consumer resizes every 500 ms, not on every tick. S0
        # starves on each 0.1 s tick (S1 ships 0.1 bytes a tick), growing
        # its buffer a page a tick until the resize at 0.5 s shrinks it to
        # one page.
        ex = linear_sim(final_rate=400.0, scan_rate=1.0, sel=1e-6)
        buf = ex.states[0].in_buf
        caps = []
        for _ in range(5):
            ex.step()
            caps.append(buf.capacity / PAGE)
        assert caps == [2, 3, 4, 5, 1]
        assert buf.turn_up_counter == 5

    def test_starvation_rule_through_step(self):
        # S1 ships nothing (selectivity 0), so S0's input stays empty and
        # un-ended while S1 scans: each tick adds exactly one to the
        # turn-up counter and one page to the capacity, until the 500 ms
        # resize (which follows the tick's take) sets it back to one page.
        # On the tick S1 ends, the buffer is ended and empty: neither.
        ex = linear_sim(final_rate=400.0, scan_rate=400.0, sel=0.0)
        buf = ex.states[0].in_buf
        ticks = resizes = 0
        while True:
            counter, cap = buf.turn_up_counter, buf.capacity
            ex.step()
            ticks += 1
            if buf.ended:
                break
            assert buf.level == 0.0
            assert buf.turn_up_counter == counter + 1
            if ex._last_resize == ex.t:
                resizes += 1
                assert buf.capacity == PAGE
            else:
                assert buf.capacity == cap + PAGE
        assert buf.level == 0.0
        assert (buf.turn_up_counter, buf.capacity) == (counter, cap)
        assert ex.done and ticks > 20 and resizes >= 4
        assert buf.turn_up_counter == ticks - 1


class TestCachedBuildSide:
    @pytest.mark.parametrize("partitioned", [False, True], ids=["broadcast", "partitioned"])
    def test_rebuild_reads_the_whole_build_side(self, partitioned):
        # §4.2.1/§4.5: the build side arrives through the children's output
        # buffers, and a later rebuild (broadcast growth or partitioned
        # switch) reads all of it again from their page cache
        ex = join_sim(partitioned=partitioned)
        build_bytes = RuntimeInfoCollector(ex).collect()[1].build_bytes
        assert build_bytes == pytest.approx(0.2 * GB)
        out = ex.set_stage_dop(1, 2)
        assert out.applied and out.rebuild.partitioned == partitioned
        assert out.rebuild.build_bytes == build_bytes


SRC = Path(__file__).resolve().parents[1] / "src"


def turn_up_writers(source: str) -> list[tuple[int, str]]:
    """(line, function) for each write of a ``turn_up_counter`` attribute
    in ``source``: a store, a delete, or a ``setattr`` with that name. The
    function is the enclosing ``Class.method`` (``<module>`` outside any
    function)."""
    found = []

    def visit(node, scope: list[str], in_fn: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], True)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], in_fn)
                continue
            where = ".".join(scope) if in_fn else "<module>"
            if (isinstance(child, ast.Attribute) and child.attr == "turn_up_counter"
                    and isinstance(child.ctx, (ast.Store, ast.Del))):
                found.append((child.lineno, where))
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "setattr"
                  and any(isinstance(a, ast.Constant) and a.value == "turn_up_counter"
                          for a in child.args)):
                found.append((child.lineno, where))
            visit(child, scope, in_fn)

    visit(ast.parse(source), [], False)
    return sorted(found)


class TestStarvationRuleGuard:
    """The starvation rule has one home: no function under ``src/`` but
    ``ByteElasticBuffer.take`` writes a turn-up counter, so the tick cannot
    fork it."""

    @pytest.mark.parametrize("path", sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*.py")))
    def test_only_take_writes_the_turn_up_counter(self, path):
        writers = turn_up_writers((SRC / path).read_text())
        assert [w for w in writers if w[1] != "ByteElasticBuffer.take"] == []

    def test_take_is_the_writer(self):
        writers = turn_up_writers((SRC / "repro" / "engine" / "exec_sim.py").read_text())
        assert {name for _, name in writers} == {"ByteElasticBuffer.take"}

    def test_detector_flags_each_form(self):
        src = (
            "class B:\n"
            "    turn_up_counter: int = 0\n"
            "    def take(self):\n        self.turn_up_counter += 1\n"
            "class Ex:\n"
            "    def step(self, buf):\n        buf.turn_up_counter = buf.turn_up_counter + 1\n"
            "    def reset(self, buf):\n        setattr(buf, 'turn_up_counter', 0)\n"
            "def drop(buf):\n    del buf.turn_up_counter\n"
            "def read(buf):\n    return Info(turn_up_counter=buf.turn_up_counter)\n"
            "b = B()\nb.turn_up_counter = 2\n"
        )
        assert turn_up_writers(src) == [
            (4, "B.take"), (7, "Ex.step"), (9, "Ex.reset"), (11, "drop"), (15, "<module>"),
        ]
