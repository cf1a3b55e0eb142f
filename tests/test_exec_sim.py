"""Behavioural tests for the discrete-time executor (repro.engine.exec_sim)."""
import pytest

from repro.engine import plan as P
from repro.core import AutoTuner, RuntimeInfoCollector, ScriptExecutor, rate_at
from repro.engine.exec_sim import ByteElasticBuffer, SimExecutor, SimQuery, StageCost
from repro.engine.plan import fragment_plan
from repro.experiments import q2j_switching, q3_intratask
from repro.queries.tpch import QUERIES

GB = 1e9
MB = 1e6


def linear_query(scan_bytes=1 * GB, rate=100.0, sel=1e-6):
    """S0 final agg <- S1 scan(+partial agg)."""
    pl = P.output(P.final_agg(P.exchange(P.partial_agg(P.scan("t"), selectivity=sel))))
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
        # §4.5: build side retained in the intermediate data cache
        ex = SimExecutor(join_query(partitioned=True))
        ex.run()
        assert 3 in ex.cache
        assert ex.cache.entries[3].bytes == pytest.approx(0.2 * GB, rel=0.01)

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
        ex = SimExecutor(linear_query(), task_dop=2)
        assert ex.stage_input_capacity_bytes_s(1) == pytest.approx(200 * MB)
        assert ex.stage_output_capacity_bytes_s(1) == pytest.approx(200 * MB * 1e-6)

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


class TestByteElasticBuffer:
    def test_starvation_grows_capacity(self):
        b = ByteElasticBuffer()
        got = b.take(100.0)
        assert got == 0.0
        assert b.turn_up_counter == 1
        assert b.capacity > 1e6

    def test_take_bounded_by_level(self):
        b = ByteElasticBuffer()
        b.push(500.0)
        assert b.take(1000.0) == 500.0

    def test_no_turn_up_after_end(self):
        b = ByteElasticBuffer()
        b.ended = True
        b.take(100.0)
        assert b.turn_up_counter == 0

    def test_resize_tracks_consumption(self):
        b = ByteElasticBuffer()
        b.push(50 * MB)
        b.take(50 * MB)
        b.tick(0.6)
        assert b.capacity == pytest.approx(60 * MB)


def _assert_topology_consistent(ex):
    """ROADMAP aim 3's engine invariants over the scheduler's topology."""
    exe = ex.exe
    tasks = [t for stage in exe.stages.values() for t in stage.tasks]
    assert sum(n.active_drivers for n in exe.cluster.nodes) == sum(t.dop for t in tasks)
    for sid, buf in exe.out_buffers.items():
        parent = exe.parent_stage(sid)
        seqs = sorted(t.seq for t in parent.tasks) if parent is not None else []
        assert sorted(buf.buffer_ids) == seqs, sid
        assert all(buf.groups), sid  # no empty task group left behind
    for st in ex.states.values():
        if st.probing_task_ids is not None:
            assert st.probing_task_ids


class TestTopology:
    def test_partitioned_switch_retires_old_group(self):
        # §4.5: after a 2 -> 4 switch the children's buffers serve exactly
        # the new task group, and the parents forget the retired tasks
        ex = SimExecutor(QUERIES["Q2J"].sim_query(), stage_dop=2)
        while ex.t < 120.0:
            ex.step()
        assert ex.set_stage_dop(1, 4).applied
        assert ex.exe.out_buffers[2].groups == [[0, 1], [2, 3, 4, 5]]
        while ex.states[1].pending_switch is not None:
            ex.step()
        new_seqs = [t.seq for t in ex.exe.stages[1].tasks]
        assert new_seqs == [2, 3, 4, 5]
        for cid in (2, 3):
            assert ex.exe.out_buffers[cid].buffer_ids == new_seqs
            assert ex.exe.out_buffers[cid].groups == [new_seqs]
        retired = {"task1_0", "task1_1"}
        for ptask in ex.exe.stages[0].tasks:
            assert retired.isdisjoint(s.task_id for s in ptask.upstream_addresses())

    def test_task_dop_below_one_rejected(self):
        ex = SimExecutor(QUERIES["Q3"].sim_query())
        out = ex.set_task_dop(1, 0)
        assert not out.applied
        assert ex.exe.stages[1].task_dop == 1
        assert ex.exe.rpc_requests == ex.exe.init_rpc_requests  # nothing charged
        _assert_topology_consistent(ex)

    def test_stage_dop_below_one_rejected(self):
        ex = SimExecutor(QUERIES["Q3"].sim_query())
        out = ex.set_stage_dop(2, 0)
        assert not out.applied
        assert ex.exe.stages[2].dop == 1
        assert ex.exe.rpc_requests == ex.exe.init_rpc_requests
        assert ex.run() > 0  # the stage still has a task to finish it

    @pytest.mark.parametrize("query,stage_dop,script", [
        ("Q3", 1, q3_intratask.SCRIPT),
        ("Q2J", 2, q2j_switching.SCRIPT),
    ], ids=["Q3-E1", "Q2J-E3"])
    def test_invariants_hold_through_scripted_run(self, query, stage_dop, script):
        ex = SimExecutor(QUERIES[query].sim_query(), stage_dop=stage_dop)
        sc = ScriptExecutor.from_text(script)
        ex.run(controllers=[sc.controller(AutoTuner(ex)), lambda t, e: _assert_topology_consistent(e)])
        assert sc.applied()
        _assert_topology_consistent(ex)
