"""§4.1 stage pinning, and the operator semantics the executor
keeps: a fragment's operators fold into its stage, which streams
``selectivity x input`` downstream and relays the end once its input has
ended and drained; a join build is a sink that fills the hash table."""
import pytest

from repro.engine import exec_sim
from repro.engine import plan as P
from repro.engine.exec_sim import SimExecutor, SimQuery, StageCost

GB = 1e9


def linear_sim(sel, *, scan_bytes=0.2 * GB, final_rate=400.0):
    """S0 final agg <- S1 scan + filter of selectivity ``sel``."""
    tree = P.fragment_plan(P.output(P.final_agg(P.exchange(P.filter_(P.scan("t"))))))
    costs = {
        0: StageCost(per_driver_rate_mb_s=final_rate),
        1: StageCost(per_driver_rate_mb_s=100.0, selectivity=sel, scan_bytes=scan_bytes),
    }
    return SimExecutor(SimQuery("linear", tree, costs))


def step_until(ex, cond, max_s=1e4):
    while not cond() and ex.t < max_s:
        ex.step()
    assert cond()


class TestClassification:
    def test_final_agg_and_topn_pin_their_stage(self):
        # a join build is stateful too, but it is rebuilt on a DOP change
        # (§4.5) instead of pinning the stage
        scan = P.scan("t")

        def pinned(root):
            return P.Fragment(0, root).pinned

        assert pinned(P.output(P.final_agg(scan)))
        assert pinned(P.topn(scan))
        assert not pinned(P.hash_join(scan, P.scan("u"), partitioned=True))
        assert not pinned(P.partial_agg(P.filter_(scan)))


class TestStatelessOperator:
    def test_passthrough(self):
        # the stage streams its output as it consumes: nothing is held back
        ex = linear_sim(0.5)
        for _ in range(5):
            ex.step()
        s1, s0 = ex.states[1], ex.states[0]
        assert s1.consumed > 0 and not s1.ended
        assert s1.produced == pytest.approx(0.5 * s1.consumed)
        assert s0.in_buf.level + s0.consumed == pytest.approx(s1.produced)

    def test_counters(self):
        ex = linear_sim(0.25)
        ex.run()
        s1, s0 = ex.states[1], ex.states[0]
        assert s1.consumed == pytest.approx(0.2 * GB)
        assert s1.produced == pytest.approx(0.05 * GB)
        assert s0.consumed == pytest.approx(s1.produced)

    def test_end_page_finishes_and_relays(self):
        # a stateless stage finishes as soon as its input is done and relays
        # the end downstream in the same tick
        ex = linear_sim(0.5)
        step_until(ex, lambda: ex.states[1].ended)
        assert ex.states[0].in_buf.ended

    def test_fully_filtered_page_emits_nothing(self):
        ex = linear_sim(0.0)
        ex.run()
        assert ex.states[1].consumed == pytest.approx(0.2 * GB)
        assert ex.states[1].produced == 0.0
        assert ex.states[0].consumed == 0.0
        assert ex.states[0].ended  # the end still arrives without data

    def test_page_after_finish_raises(self):
        # a finished stage takes no further DOP changes
        ex = linear_sim(0.5)
        step_until(ex, lambda: ex.states[1].ended)
        out = ex.set_task_dop(1, 2)
        assert not out.applied
        assert out.reason == "stage already finished"
        assert ex.exe.stages[1].task_dop == 1


class TestStatefulOperator:
    def test_flushes_then_relays_end(self):
        # the input has ended but is still buffered: the stage drains it
        # before it finishes
        ex = linear_sim(1.0, final_rate=10.0)
        step_until(ex, lambda: ex.states[1].ended)
        s0 = ex.states[0]
        assert s0.in_buf.ended and s0.in_buf.level > 0
        assert not s0.ended
        ex.run()
        assert s0.ended and s0.in_buf.level <= exec_sim._EPS
        assert s0.consumed == pytest.approx(ex.states[1].produced)

    def test_build_operator_is_sink(self):
        # the build side fills the hash table; only the probe side's bytes
        # reach the join's output
        tree = P.fragment_plan(P.output(P.final_agg(P.exchange(P.hash_join(
            P.exchange(P.scan("a")), P.exchange(P.scan("b")), partitioned=False)))))
        costs = {
            0: StageCost(per_driver_rate_mb_s=400.0),
            1: StageCost(per_driver_rate_mb_s=100.0, selectivity=0.5),
            2: StageCost(per_driver_rate_mb_s=400.0, scan_bytes=0.4 * GB),
            3: StageCost(per_driver_rate_mb_s=400.0, scan_bytes=0.2 * GB),
        }
        ex = SimExecutor(SimQuery("join", tree, costs))
        ex.run()
        s1 = ex.states[1]
        assert s1.build_received == pytest.approx(0.2 * GB)
        assert s1.consumed == pytest.approx(0.4 * GB)
        assert s1.produced == pytest.approx(0.2 * GB)
