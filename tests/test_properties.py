"""Property-based tests (hypothesis) for the engine substrate invariants."""
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AutoTuner
from repro.core.filter import STAGE, TASK, TuningRequest
from repro.core.script import AC, AP, CONSTRAINT, RP
from repro.engine import plan as P
from repro.engine.exec_sim import DEFAULT_PAGE_BYTES, ByteElasticBuffer, SimExecutor
from repro.engine.splits import SplitSource
from repro.queries.tpch import QUERIES
from tests.test_exec_sim import _assert_topology_consistent

# random physical plans: scans at the leaves, joins/filters above, every
# fragment boundary marked by an exchange (as the optimizer would)
_plans = st.recursive(
    st.sampled_from(["lineitem", "orders", "customer"]).map(
        lambda t: P.exchange(P.scan(t))
    ),
    lambda children: st.tuples(children, children, st.booleans()).map(
        lambda pb: P.exchange(P.hash_join(pb[0], pb[1], partitioned=pb[2]))
    ),
    max_leaves=6,
)


class TestFragmentationProperties:
    @given(plan=_plans)
    @settings(max_examples=60, deadline=None)
    def test_fragmentation_invariants(self, plan):
        tree = P.fragment_plan(P.output(P.final_agg(plan)))
        ids = tree.stage_ids()
        # ids are unique, contiguous from 0, root is 0
        assert ids == list(range(len(ids)))
        assert tree.root_id == 0
        # every non-root fragment has exactly one parent, and the parent's
        # source list points back at it
        for sid in ids[1:]:
            parent = tree.parent_of(sid)
            assert parent is not None
            assert sid in tree[parent].source_stage_ids()
        # topological order visits children before parents, root last
        order = tree.topological()
        assert set(order) == set(ids) and order[-1] == 0
        for sid in ids:
            for child in tree.children_of(sid):
                assert order.index(child) < order.index(sid)
        # every join fragment has exactly one probe and one build source
        for sid in ids:
            frag = tree[sid]
            if frag.has_join:
                assert frag.main_source is not None
                assert frag.build_source is not None


class TestSplitProperties:
    @given(n_rows=st.integers(min_value=1, max_value=2000),
           n_nodes=st.integers(min_value=1, max_value=10),
           spn=st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_splits_partition_rows_exactly(self, n_rows, n_nodes, spn):
        pdf = pd.DataFrame({"k": range(n_rows)})
        src = SplitSource("t", pdf, n_nodes=n_nodes, splits_per_node=spn)
        assert len(src) == n_nodes * spn
        covered = [i for s in src.splits for i in range(s.start, s.stop)]
        assert covered == list(range(n_rows))
        assert len({s.split_id for s in src.splits}) == len(src)


class TestElasticBufferProperties:
    @given(ops=st.lists(st.sampled_from(["fill", "take", "tick", "end"]),
                        min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_queue_never_exceeds_capacity_plus_ends(self, ops):
        # §4.2.2: a producer that ships at most the free space never fills
        # past capacity; a resize never drops buffered bytes; the end adds
        # no data; and the capacity never shrinks below one page
        b = ByteElasticBuffer()
        for op in ops:
            before = b.level
            if op == "fill":
                b.level += max(0.0, b.capacity - b.level)
            elif op == "take":
                b.take(DEFAULT_PAGE_BYTES / 2)
            elif op == "tick":  # the executor's 500 ms clock
                ByteElasticBuffer.resize_all([b])
            else:
                b.ended = True
            if b.level > before:
                assert b.level <= b.capacity
            if op in ("tick", "end"):
                assert b.level == before
            assert b.capacity >= DEFAULT_PAGE_BYTES

    @given(amounts=st.lists(st.floats(min_value=0.0, max_value=1e8),
                            min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_byte_buffer_take_never_exceeds_pushed(self, amounts):
        b = ByteElasticBuffer()
        pushed = taken = 0.0
        for a in amounts:
            b.level += a
            pushed += a
            taken += b.take(a / 2 + 1.0)
        assert taken <= pushed + 1e-6
        assert b.level >= -1e-6


# Script actions at whole seconds, so several can land on one tick or
# inside one DOP switch: (kind, stage index, target DOP or a deadline in
# 20 s units, t, through the filter or straight to the executor). Targets
# reach 0, and task DOPs pass a node's 8 cores.
_actions = st.lists(
    st.tuples(st.sampled_from([AC, AP, RP, CONSTRAINT]), st.integers(0, 12), st.integers(0, 12),
              st.integers(0, 300), st.booleans()),
    min_size=1, max_size=8,
)


def _topology(ex):
    """What a rejected request must leave as it was."""
    return (
        ex.exe.rpc_requests,
        {sid: [(t.task_id, t.dop) for t in s.tasks] for sid, s in ex.exe.stages.items()},
        [n.active_drivers for n in ex.cluster.nodes],
    )


class TestRandomScripts:
    """ROADMAP aim 3: random scripts on every simulated workload query,
    with the DOP monitor chasing their deadlines, keep the engine
    invariants on every tick, end, and reject requests without side
    effects."""

    @given(query=st.sampled_from(["Q1", "Q2", "Q3", "Q2J", "Q5", "Q7", "QSHUF"]),
           stage_dop=st.integers(1, 2), dt=st.sampled_from([0.5, 1.0]), actions=_actions)
    @settings(max_examples=80, deadline=None)
    def test_invariants_and_rejections(self, query, stage_dop, dt, actions):
        ex = SimExecutor(QUERIES[query].sim_query(), stage_dop=stage_dop, dt=dt)
        tuner = AutoTuner(ex)
        sids = ex.query.tree.stage_ids()
        direct = tuner.direct

        def checked(req, apply=None):
            before = _topology(ex)
            noop = req.kind == TASK and req.new_dop == ex.exe.stages[req.stage_id].task_dop
            out = apply() if apply is not None else direct(req)
            if (req.new_dop < 1 or noop
                    or (ex.query.tree[req.stage_id].pinned and req.new_dop != 1)):
                assert not out.applied
            if not out.applied:
                assert _topology(ex) == before, out.reason
            return out

        tuner.direct = checked  # the monitor's own requests are checked too
        pending = sorted(actions, key=lambda a: a[3])

        def ctrl(t, e):
            while pending and pending[0][3] <= t:
                kind, i, n, _, filtered = pending.pop(0)
                sid = sids[i % len(sids)]
                req = TuningRequest(TASK if kind == AC else STAGE, sid, n)
                if kind == CONSTRAINT:
                    tuner.set_stage_deadline(sid, t + 20 * n)
                elif filtered:
                    checked(req)
                else:
                    apply = e.set_task_dop if kind == AC else e.set_stage_dop
                    checked(req, lambda: apply(sid, n))
            _assert_topology_consistent(e)

        ex.run(controllers=[ctrl, tuner.monitor], max_s=50_000)
        assert ex.done
        _assert_topology_consistent(ex)
