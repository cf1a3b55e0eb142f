"""Behavioural tests for the discrete-time executor (repro.engine.exec_sim)."""
import ast
import math
from pathlib import Path

import pytest

from repro.cluster import Cluster
from repro.engine import exec_sim
from repro.engine import plan as P
from repro.core import AutoTuner, RuntimeInfoCollector, ScriptExecutor, rate_at
from repro.engine.exec_sim import ByteElasticBuffer, SimExecutor, SimQuery, StageCost
from repro.engine.plan import fragment_plan
from repro.experiments import (
    autotune, elastic_shuffle, q2j_switching, q3_intrastage, q3_intratask,
)
from repro.queries.tpch import QUERIES, qshuf_sim

GB = 1e9
MB = 1e6


def linear_query(scan_bytes=1 * GB, rate=100.0, sel=1e-6):
    """S0 final agg <- S1 scan(+partial agg)."""
    pl = P.output(P.final_agg(P.exchange(P.partial_agg(P.scan("t")))))
    tree = fragment_plan(pl)
    costs = {
        0: StageCost(per_driver_rate_mb_s=400.0),
        1: StageCost(per_driver_rate_mb_s=rate, selectivity=sel, scan_bytes=scan_bytes),
    }
    return SimQuery("linear", tree, costs)


def join_query(probe_bytes=1 * GB, build_bytes=0.2 * GB, *, partitioned,
               probe_rate=50.0):
    """S0 final <- S1 join <- probe S2 scan a, build S3 scan b."""
    pl = P.output(P.final_agg(P.exchange(P.partial_agg(P.hash_join(
        P.exchange(P.scan("a")),
        P.exchange(P.scan("b")),
        partitioned=partitioned)))))
    tree = fragment_plan(pl)
    costs = {
        0: StageCost(per_driver_rate_mb_s=400.0),
        1: StageCost(per_driver_rate_mb_s=probe_rate, selectivity=1e-6),
        2: StageCost(per_driver_rate_mb_s=400.0, scan_bytes=probe_bytes),
        3: StageCost(per_driver_rate_mb_s=400.0, scan_bytes=build_bytes),
    }
    return SimQuery("join", tree, costs)


class TestLinearFlow:
    def test_scan_bound_completion_time(self):
        ex = SimExecutor(linear_query(rate=100.0))
        total = ex.run()
        # 1 GB at 100 MB/s = 10 s (+ init + ramp)
        assert 10.0 <= total <= 12.0

    def test_all_bytes_processed(self):
        ex = SimExecutor(linear_query())
        ex.run()
        assert ex.states[1].consumed == pytest.approx(1 * GB, rel=1e-6)

    def test_parallelism_speeds_up(self):
        slow = SimExecutor(linear_query(rate=100.0), task_dop=1).run()
        fast = SimExecutor(linear_query(rate=100.0), task_dop=4).run()
        assert fast < slow / 2.5

    def test_stage_dop_speeds_up(self):
        slow = SimExecutor(linear_query(), stage_dop=1).run()
        fast = SimExecutor(linear_query(), stage_dop=4).run()
        assert fast < slow / 2.5

    def test_throughput_series_recorded(self):
        ex = SimExecutor(linear_query())
        ex.run()
        s1 = RuntimeInfoCollector(ex).collect()[1]
        assert len(s1.samples) == int(ex.t)  # one sample per simulated second
        peak = max(rate_at(s1, t) for t, _ in s1.samples)
        assert peak == pytest.approx(100 * MB, rel=0.05)

    def test_unfinished_run_raises(self):
        ex = SimExecutor(linear_query())
        with pytest.raises(RuntimeError):
            ex.run(max_s=0.5)


class TestJoinPhasing:
    def test_probe_waits_for_build(self):
        # §4.1: probe-side processing waits for the hash-table build
        ex = SimExecutor(join_query(partitioned=False))
        ex.run()
        st1 = ex.states[1]
        assert st1.build_done_at is not None
        # join consumed nothing before build completion
        pre = [c for t, c in st1.cum_consumed_samples if t <= st1.build_done_at]
        assert not pre or pre[-1] < 0.02 * GB

    def test_build_ingest_rate_bounded(self):
        ex = SimExecutor(join_query(build_bytes=1 * GB, partitioned=False))
        ex.run()
        # 1 GB at 137 MB/s/task ~ 7.3 s
        assert ex.states[1].build_done_at == pytest.approx(7.3, abs=1.0)

    def test_backpressure_limits_probe_prefetch(self):
        # elastic buffers stay small while the consumer is not pulling
        ex = SimExecutor(join_query(build_bytes=1 * GB, partitioned=False))
        while not ex.states[1].built:
            ex.step()
        st1 = ex.states[1]
        # scan cannot run ahead: only the (small) buffer capacity is filled
        assert ex.states[2].consumed < 0.05 * GB
        assert st1.in_buf.level <= st1.in_buf.capacity + 1

    def test_build_side_cached_for_reuse(self):
        # §4.5: a rebuild reshuffles the whole cached build side
        ex = SimExecutor(join_query(probe_bytes=4 * GB, partitioned=True))
        while not ex.states[1].built:
            ex.step()
        build_bytes = RuntimeInfoCollector(ex).collect()[1].build_bytes
        assert build_bytes == pytest.approx(0.2 * GB)
        op = ex.set_stage_dop(1, 2).rebuild
        assert op.build_bytes == build_bytes
        ex.run()
        assert ex.state_transfers == [op]

    def test_turn_up_counter_flat_for_bottleneck(self):
        # §5.1: the bottleneck stage's buffer never runs empty
        ex = SimExecutor(join_query(probe_rate=20.0, partitioned=False))
        ex.run()
        info = RuntimeInfoCollector(ex).collect()
        # S1 (slow probe) is the bottleneck: a few counts at ramp-up at
        # most; S0 starves continually.
        assert info[0].turn_up_counter > 10 * max(1, info[1].turn_up_counter)


class TestIntraTaskTuning:
    def test_add_drivers_mid_query(self):
        q = linear_query(scan_bytes=2 * GB, rate=100.0)
        ex = SimExecutor(q)

        def ctrl(t, e):
            if abs(t - 5.0) < e.dt / 2:
                out = e.set_task_dop(1, 4)
                assert out.applied
        total = ex.run(controllers=[ctrl])
        # 5 s at 100 MB/s + 1.5 GB at 400 MB/s ~ 8.75 s
        assert total < 10.5

    def test_latency_charged(self):
        ex = SimExecutor(linear_query())
        ex.step()
        out = ex.set_task_dop(1, 2)
        assert out.applied and 0 < out.latency_s < 0.1

    def test_cpu_saturation_no_gain(self):
        # more drivers than one node's 8 cores: throughput stops growing
        q = linear_query(scan_bytes=20 * GB, rate=100.0)
        t8 = SimExecutor(q, task_dop=8).run()
        t16 = SimExecutor(linear_query(scan_bytes=20 * GB, rate=100.0), task_dop=16).run()
        assert t16 == pytest.approx(t8, rel=0.05)

    def test_tuning_finished_stage_rejected(self):
        ex = SimExecutor(linear_query())
        ex.run()
        out = ex.set_task_dop(1, 4)
        assert not out.applied
        assert "finished" in out.reason


class TestIntraStageTuning:
    def test_plain_stage_add_remove(self):
        q = linear_query(scan_bytes=4 * GB)
        ex = SimExecutor(q)

        def ctrl(t, e):
            if abs(t - 2.0) < e.dt / 2:
                assert e.set_stage_dop(1, 4).applied
            if abs(t - 6.0) < e.dt / 2:
                assert e.set_stage_dop(1, 2).applied
        ex.run(controllers=[ctrl])
        assert ex.states[1].stage.dop == 2

    def test_noop_request_rejected(self):
        ex = SimExecutor(linear_query())
        ex.step()
        out = ex.set_stage_dop(1, 1)
        assert not out.applied and "no-op" in out.reason

    def test_broadcast_increase_delays_activation(self):
        q = join_query(probe_bytes=4 * GB, build_bytes=1 * GB, partitioned=False)
        ex = SimExecutor(q)
        fired = {}

        def ctrl(t, e):
            if e.states[1].built and not fired and t >= e.states[1].build_done_at + 1:
                out = e.set_stage_dop(1, 4)
                fired["op"] = out.rebuild
                assert out.applied
        ex.run(controllers=[ctrl])
        op = fired["op"]
        assert op.shuffle_time_s == 0.0
        # broadcast rebuild: full build side at 137 MB/s, tasks in parallel
        assert op.build_time_s == pytest.approx(1e9 / 137e6, rel=0.01)
        st = ex.states[1]
        assert all(
            st.active_from[tid] == pytest.approx(op.done_at) for tid in op.new_task_ids
        )

    def test_partitioned_switch_records_state_transfer(self):
        q = join_query(probe_bytes=6 * GB, build_bytes=1 * GB, partitioned=True)
        ex = SimExecutor(q, stage_dop=2)

        def ctrl(t, e):
            if abs(t - 12.0) < e.dt / 2:
                assert e.set_stage_dop(1, 4).applied
        ex.run(controllers=[ctrl])
        assert len(ex.state_transfers) == 1
        rec = ex.state_transfers[0]
        assert rec.old_dop == 2 and rec.new_dop == 4
        assert rec.shuffle_time_s > 0 and rec.build_time_s > 0
        # old group was retired: stage now has exactly 4 tasks
        assert ex.states[1].stage.dop == 4

    def test_probe_uninterrupted_during_switch(self):
        # Fig. 26: hash join is not interrupted while rebuilding
        q = join_query(probe_bytes=6 * GB, build_bytes=2 * GB, partitioned=True)
        ex = SimExecutor(q, stage_dop=2)
        marks = {}

        def ctrl(t, e):
            if abs(t - 12.0) < e.dt / 2:
                out = e.set_stage_dop(1, 4)
                marks["op"] = out.rebuild
                marks["consumed_at_request"] = e.states[1].consumed
        ex.run(controllers=[ctrl])
        op = marks["op"]
        st = ex.states[1]
        during = [c for t, c in st.cum_consumed_samples
                  if op.started_at <= t <= op.done_at]
        assert during[-1] > marks["consumed_at_request"]

    def test_second_switch_while_pending_rejected(self):
        q = join_query(probe_bytes=6 * GB, build_bytes=2 * GB, partitioned=True)
        ex = SimExecutor(q, stage_dop=2)
        results = {}

        def ctrl(t, e):
            if abs(t - 12.0) < e.dt / 2:
                e.set_stage_dop(1, 4)
                results["second"] = e.set_stage_dop(1, 6)
        ex.run(controllers=[ctrl])
        assert not results["second"].applied
        assert "in progress" in results["second"].reason

    def test_final_stage_rejected(self):
        ex = SimExecutor(linear_query())
        ex.step()
        out = ex.set_stage_dop(0, 2)
        assert not out.applied


class TestRebuildDop:
    """The DOP a snapshot reports while a join stage rebuilds (§4.5)."""

    @staticmethod
    def start(partitioned, stage_dop, new_dop):
        q = join_query(probe_bytes=6 * GB, build_bytes=1 * GB, partitioned=partitioned)
        ex = SimExecutor(q, stage_dop=stage_dop)
        while not ex.states[1].built:
            ex.step()
        op = ex.set_stage_dop(1, new_dop).rebuild
        return ex, op, RuntimeInfoCollector(ex)

    def test_partitioned_switch_reports_the_old_group_until_done(self):
        ex, op, collector = self.start(True, 2, 4)
        assert len(op.new_task_ids) == 4
        while ex.t < op.done_at:
            s = collector.collect()[1]
            assert (s.dop, s.switching) == (2, True)
            ex.step()
        s = collector.collect()[1]
        assert (s.dop, s.switching) == (4, False)
        # the old group is retired
        assert [t.task_id for t in ex.exe.stages[1].tasks] == op.new_task_ids

    def test_broadcast_reports_rebuilding_tasks_but_they_do_not_probe(self):
        ex, op, collector = self.start(False, 1, 4)
        one_task = ex.snapshot()[1].output_capacity_bytes_s
        while ex.t < op.done_at:
            s = collector.collect()[1]
            assert (s.dop, s.switching) == (4, False)
            assert s.output_capacity_bytes_s == one_task
            ex.step()
        assert collector.collect()[1].dop == 4
        assert ex.snapshot()[1].output_capacity_bytes_s == pytest.approx(4 * one_task)

    def test_output_capacity_goes_stale_at_the_next_activation(self):
        # the cached output capacity keeps the rates' rates_until rule, so
        # a stage no tick refills (one that has ended) still reads the
        # tasks probing now: here the rebuilt ones, from done_at
        ex, op, _ = self.start(False, 1, 4)
        one_task = ex.snapshot()[1].output_capacity_bytes_s
        ex.t = op.done_at
        assert ex.snapshot()[1].output_capacity_bytes_s == pytest.approx(4 * one_task)


class TestShuffleCaps:
    def test_out_shuffle_rate_binds(self):
        pl = P.output(P.final_agg(P.exchange(P.partial_agg(P.hash_join(
            P.exchange(P.scan("a")), P.exchange(P.scan("b")), partitioned=True)))))
        tree = fragment_plan(pl)
        costs = {
            0: StageCost(per_driver_rate_mb_s=400.0),
            1: StageCost(per_driver_rate_mb_s=400.0, selectivity=1e-6),
            2: StageCost(per_driver_rate_mb_s=400.0, scan_bytes=1 * GB,
                         out_shuffle_rate_mb_s=50.0),
            3: StageCost(per_driver_rate_mb_s=400.0, scan_bytes=0.01 * GB),
        }
        ex = SimExecutor(SimQuery("cap", tree, costs))
        total = ex.run()
        # 1 GB at the 50 MB/s shuffle cap = 20 s, not 2.5 s
        assert total >= 19.0
        assert ex.states[2].shuffle_bound

    def test_per_task_rate_shuffle_stage(self):
        pl = P.output(P.final_agg(P.exchange(
            P.shuffle_stage_node(P.exchange(P.scan("a"))))))
        tree = fragment_plan(pl)
        costs = {
            0: StageCost(per_driver_rate_mb_s=400.0),
            1: StageCost(per_driver_rate_mb_s=100.0, per_task_rate=True, selectivity=1e-6),
            2: StageCost(per_driver_rate_mb_s=400.0, scan_bytes=1 * GB),
        }
        # task DOP must not matter for a per-task-rate (executor-bound) stage
        t1 = SimExecutor(SimQuery("s", tree, costs), task_dop=1).run()
        t4 = SimExecutor(SimQuery("s", tree, costs), task_dop=4).run()
        assert t4 == pytest.approx(t1, rel=0.05)


class TestRuntimeQueries:
    def test_scan_progress(self):
        ex = SimExecutor(linear_query(scan_bytes=1 * GB))
        for _ in range(40):  # 4 s at 100 MB/s
            ex.step()
        s1 = RuntimeInfoCollector(ex).collect()[1]
        assert s1.remaining_bytes == pytest.approx(0.6 * GB, rel=0.05)
        assert s1.recent_rate_bytes_s == pytest.approx(100 * MB, rel=0.1)

    def test_capacity_queries(self):
        ex = SimExecutor(linear_query(sel=1.0), task_dop=2)
        assert ex.snapshot()[1].output_capacity_bytes_s == pytest.approx(200 * MB)
        ex = SimExecutor(linear_query(), task_dop=2)
        assert ex.snapshot()[1].output_capacity_bytes_s == pytest.approx(200 * MB * 1e-6)

    def test_stage_finished(self):
        ex = SimExecutor(linear_query())
        collector = RuntimeInfoCollector(ex)
        assert not collector.collect()[1].finished
        ex.run()
        assert collector.collect()[1].finished

    def test_total_time_includes_init(self):
        ex = SimExecutor(linear_query())
        total = ex.run()
        assert total == pytest.approx(ex.t + ex.exe.init_time_s)


class TestStepSizeConvergence:
    """Simulated time converges as dt -> 0 (ROADMAP item 3's gate): the
    fixed step only delays each event to the next tick."""

    @pytest.mark.parametrize("name,stage_dop", [("Q3", 1), ("Q2J", 2), ("Q5", 1)])
    def test_converges_as_dt_shrinks(self, name, stage_dop):
        t = {dt: SimExecutor(QUERIES[name].sim_query(), stage_dop=stage_dop, dt=dt).run()
             for dt in (0.1, 0.02, 0.01)}
        assert abs(t[0.02] - t[0.01]) <= abs(t[0.1] - t[0.01])
        assert t[0.1] == pytest.approx(t[0.01], rel=0.005)

    @pytest.mark.parametrize("dt", [0.5, 0.1, 0.02, 0.01])
    def test_q1_does_not_depend_on_dt(self, dt):
        assert SimExecutor(QUERIES["Q1"].sim_query(), dt=dt).run() == pytest.approx(185.14, abs=0.005)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    def test_periodic_events_keep_their_period(self):
        # the buffer resize runs every 500 ms and progress samples land once
        # per second; a clock kept as a running sum of dt drifts below n*dt,
        # so they fire at ticks 5, 11, 16, 21 and at 1.1, 2.1, 3.1 s instead
        ex = SimExecutor(QUERIES["Q3"].sim_query())
        resize_ticks = []
        for tick in range(1, 41):
            ex.step()
            if ex._last_resize == ex.t:
                resize_ticks.append(tick)
        assert resize_ticks == [5, 10, 15, 20, 25, 30, 35, 40]
        samples = [t for t, _ in ex.states[1].cum_consumed_samples]
        assert samples == pytest.approx([1.0, 2.0, 3.0, 4.0])


class TestByteElasticBuffer:
    def test_starvation_grows_capacity(self):
        b = ByteElasticBuffer()
        got = b.take(100.0)
        assert got == 0.0
        assert b.turn_up_counter == 1
        assert b.capacity > 1e6

    def test_take_bounded_by_level(self):
        b = ByteElasticBuffer(level=500.0)
        assert b.take(1000.0) == 500.0

    def test_no_turn_up_after_end(self):
        b = ByteElasticBuffer()
        b.ended = True
        b.take(100.0)
        assert b.turn_up_counter == 0

    def test_resize_tracks_consumption(self):
        b = ByteElasticBuffer(level=50 * MB)
        b.take(50 * MB)
        ByteElasticBuffer.resize_all([b])
        assert b.capacity == pytest.approx(60 * MB)


def _assert_topology_consistent(ex):
    """ROADMAP aim 3's engine invariants over the scheduler's topology: the
    stages' task lists, the nodes' driver counts, and each partitioned
    join's task groups (the old group, and a switch's ``new_task_ids``)."""
    exe = ex.exe
    tasks = [t for stage in exe.stages.values() for t in stage.tasks]
    assert sum(n.active_drivers for n in exe.cluster.nodes) == sum(t.dop for t in tasks)
    for sid, st in ex.states.items():
        sources = ex.query.tree[sid].sources
        ids = [t.task_id for t in st.stage.tasks]
        assert len(set(ids)) == len(ids), sid  # task ids are unique within a stage
        op = st.pending_switch
        if op is not None:
            # §4.5 mid-switch: a non-empty old group, then exactly the new one
            k = len(op.new_task_ids)
            assert ids[-k:] == op.new_task_ids and ids[:-k], sid
        if st.partitioned and not st.ended:
            assert ex._probing_tasks(st), sid  # never an empty probe side
            switches = [o for o in ex.rebuild_log if o.stage_id == sid]
            if switches and switches[-1] is not op:  # the last switch is done
                assert ids == switches[-1].new_task_ids, sid  # only its group is left
        # bytes are conserved on every edge: what the feeders produced was
        # consumed or still sits in the buffer
        fed = sum(ex.states[s.child_stage_id].produced for s in sources if s.role != "build")
        built = sum(ex.states[s.child_stage_id].produced for s in sources if s.role == "build")
        if not st.is_scan:
            assert math.isclose(fed, st.consumed + st.in_buf.level, rel_tol=1e-9, abs_tol=1e-12), sid
        if st.has_join:
            assert math.isclose(built, st.build_received + st.build_buf.level,
                                rel_tol=1e-9, abs_tol=1e-12), sid
        # a stage's cached rates are exactly what its probing tasks give now
        if st.rates is not None and ex.t < st.rates_until:
            tasks = ex._probing_tasks(st)
            fresh = (ex._input_bytes_s(st, tasks) * ex.dt, ex._shuffle_bytes_s(st, tasks) * ex.dt)
            assert st.rates == fresh, sid
            tasks = tasks or st.stage.tasks
            fresh_out = min(ex._input_bytes_s(st, tasks) * st.cost.selectivity,
                            ex._shuffle_bytes_s(st, tasks))
            assert st.output_capacity == fresh_out, sid


class TestTopology:
    def test_partitioned_switch_retires_old_group(self):
        # §4.5: during a 2 -> 4 switch the stage holds the old group and the
        # new one; once it is done, only the new group is left, and the
        # retired tasks' drivers are released
        ex = SimExecutor(QUERIES["Q2J"].sim_query(), stage_dop=2)
        while ex.t < 120.0:
            ex.step()
        drivers = sum(n.active_drivers for n in ex.cluster.nodes)
        assert ex.set_stage_dop(1, 4).applied
        op = ex.states[1].pending_switch
        assert op.new_task_ids == ["task1_2", "task1_3", "task1_4", "task1_5"]
        assert [t.task_id for t in ex.exe.stages[1].tasks] == ["task1_0", "task1_1", *op.new_task_ids]
        assert sum(n.active_drivers for n in ex.cluster.nodes) == drivers + 4
        _assert_topology_consistent(ex)
        while ex.states[1].pending_switch is not None:
            ex.step()
        assert ex.state_transfers == [op]
        assert [t.task_id for t in ex.exe.stages[1].tasks] == op.new_task_ids
        assert sum(n.active_drivers for n in ex.cluster.nodes) == drivers + 2
        _assert_topology_consistent(ex)

    def test_pinned_scan_stage_grows_on_its_nodes(self):
        # QSHUF stores orders (S2) on storage0/storage1 (§6.4.2): the tasks
        # a DOP increase adds stay on those nodes
        ex = SimExecutor(qshuf_sim(), stage_dop=2)
        assert ex.set_stage_dop(2, 4).applied
        nodes = [t.node_id for t in ex.exe.stages[2].tasks]
        assert nodes == ["storage0", "storage1", "storage0", "storage1"]
        assert [ex.cluster.node(n).active_drivers for n in ("storage0", "storage1")] == [2, 2]
        _assert_topology_consistent(ex)

    def test_retirement_refreshes_the_rates_of_every_stage(self):
        # two compute nodes at 8 drivers per task are oversubscribed, so
        # retiring S1's old group raises the CPU share of the other stages
        # on those nodes
        ex = SimExecutor(QUERIES["Q2J"].sim_query(), cluster=Cluster.presto_testbed(n_compute=2),
                         stage_dop=2, task_dop=8)

        def ctrl(t, e):
            if abs(t - 60.0) < e.dt / 2:
                assert e.set_stage_dop(1, 4).applied
            _assert_topology_consistent(e)
        ex.run(controllers=[ctrl])
        assert len(ex.state_transfers) == 1
        _assert_topology_consistent(ex)

    def test_task_dop_below_one_rejected(self):
        ex = SimExecutor(QUERIES["Q3"].sim_query())
        out = ex.set_task_dop(1, 0)
        assert not out.applied
        assert ex.exe.stages[1].task_dop == 1
        assert ex.exe.rpc_requests == ex.exe.init_rpc_requests  # nothing charged
        _assert_topology_consistent(ex)

    @pytest.mark.parametrize("query,sid,task_dop", [("Q3", 1, 2), ("Q1", 0, 1)],
                             ids=["Q3-S1", "Q1-pinned-final"])
    def test_noop_task_dop_rejected(self, query, sid, task_dop):
        # a request for the current task DOP changes nothing and charges no
        # RPC, as set_stage_dop's no-op does; Q1's S0 is pinned to 1
        ex = SimExecutor(QUERIES[query].sim_query(), task_dop=task_dop)
        ex.step()
        rpc = ex.exe.rpc_requests
        dops = {s: [t.dop for t in stage.tasks] for s, stage in ex.exe.stages.items()}
        drivers = [n.active_drivers for n in ex.cluster.nodes]
        assert ex.exe.stages[sid].task_dop == task_dop
        out = ex.set_task_dop(sid, task_dop)
        assert not out.applied and "no-op" in out.reason
        assert ex.exe.rpc_requests == rpc
        assert {s: [t.dop for t in stage.tasks] for s, stage in ex.exe.stages.items()} == dops
        assert [n.active_drivers for n in ex.cluster.nodes] == drivers
        _assert_topology_consistent(ex)

    def test_stage_dop_below_one_rejected(self):
        ex = SimExecutor(QUERIES["Q3"].sim_query())
        out = ex.set_stage_dop(2, 0)
        assert not out.applied
        assert ex.exe.stages[2].dop == 1
        assert ex.exe.rpc_requests == ex.exe.init_rpc_requests
        assert ex.run() > 0  # the stage still has a task to finish it

    @pytest.mark.parametrize("query,stage_dop,script", [
        (QUERIES["Q3"].sim_query, 1, q3_intratask.SCRIPT),
        (QUERIES["Q3"].sim_query, 1, q3_intrastage.Q3_SCRIPT),
        (QUERIES["Q2J"].sim_query, 2, q2j_switching.SCRIPT),
        (lambda: qshuf_sim(with_shuffle_stage=True), 2, elastic_shuffle.SCRIPT),
    ], ids=["Q3-E1", "Q3-E2", "Q2J-E3", "QSHUF-E4"])
    def test_invariants_hold_through_scripted_run(self, query, stage_dop, script):
        ex = SimExecutor(query(), stage_dop=stage_dop)
        sc = ScriptExecutor.from_text(script)
        ex.run(controllers=[sc.controller(AutoTuner(ex)), lambda t, e: _assert_topology_consistent(e)])
        assert sc.applied()
        _assert_topology_consistent(ex)


class TestControllerWakes:
    """A controller returns the simulated time of its next wake (None: the
    next tick), and ``run`` calls it again at the first tick with
    ``t >=`` that time."""

    def test_called_at_first_tick_past_its_wake(self):
        ticks, calls = [], []

        def poll(t, e):
            ticks.append(t)

        def wake(t, e):
            calls.append(t)
            return t + 0.25

        ex = SimExecutor(linear_query())
        ex.run(controllers=[poll, wake])
        assert len(ticks) == round(ex.t / ex.dt)  # None: called on every tick
        want, due = [], 0.0
        for t in ticks:
            if t >= due:
                want.append(t)
                due = t + 0.25
        assert calls == want and len(calls) < len(ticks)

    @staticmethod
    def trace(module, polled):
        """Run an experiment; return its result (less the host-timed
        ``driver_gen_ms``), every tuner's log and constraints, and the time
        each script action fired. ``polled`` discards every controller's
        wake time, so each one is called on every tick."""
        tuners, fires = [], []
        post_init, controller, run = (
            AutoTuner.__post_init__, ScriptExecutor.controller, SimExecutor.run)

        def record_tuner(self):
            post_init(self)
            tuners.append(self)

        def record_fires(self, tuner):
            inner = controller(self, tuner)

            def ctrl(t, e):
                before = [a.fired for a in self.actions]
                wake = inner(t, e)
                fires.extend((t, a.notation()) for a, was in zip(self.actions, before)
                             if a.fired and not was)
                return wake
            return ctrl

        def run_polled(self, *, controllers=(), **kw):
            def poll(c):
                def ctrl(t, e):
                    c(t, e)
                return ctrl
            return run(self, controllers=[poll(c) for c in controllers], **kw)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(AutoTuner, "__post_init__", record_tuner)
            mp.setattr(ScriptExecutor, "controller", record_fires)
            if polled:
                mp.setattr(SimExecutor, "run", run_polled)
            res = module.run()
        res.pop("driver_gen_ms", None)
        return repr(res), [(repr(tu.log), repr(tu.constraints)) for tu in tuners], fires

    @pytest.mark.parametrize("module", [q3_intratask, q2j_switching, autotune],
                             ids=["E1", "E3", "E6"])
    def test_wake_times_match_polling(self, module):
        woken = self.trace(module, polled=False)
        assert woken[1] and any(log != "[]" for log, _ in woken[1])
        assert woken == self.trace(module, polled=True)


def topology_writers(source: str) -> dict[str, bool]:
    """Each function in ``source`` that changes the topology, by reading
    ``self.sched`` or ``self.exe.retire_task`` -> whether it also calls
    ``self._topology_changed()``."""
    writers = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        reads = {ast.unparse(n) for n in ast.walk(fn)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        if reads & {"self.sched", "self.exe.retire_task"}:
            calls = {ast.unparse(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call)}
            writers[fn.name] = "self._topology_changed" in calls
    return writers


class TestRateCacheGuard:
    """A stage's cached rates stay valid only if every topology change
    empties them: each ``SimExecutor`` path to the scheduler or to a task
    retirement calls ``_topology_changed()``."""

    def test_every_topology_change_empties_the_rates(self):
        writers = topology_writers(Path(exec_sim.__file__).read_text())
        assert writers, "the detector found no topology change"
        assert [name for name, ok in writers.items() if not ok] == []

    def test_detector_flags_a_path_without_the_call(self):
        src = (
            "def grow(self):\n    self.sched.add_tasks(1, 2)\n"
            "def aliased(self):\n    sched = self.sched\n    sched.remove_tasks(1, 1)\n"
            "def retire(self, t):\n    self.exe.retire_task(t)\n    self._topology_changed()\n"
            "def build(self):\n    self.sched = None\n"
        )
        assert topology_writers(src) == {"grow": False, "aliased": False, "retire": True}
