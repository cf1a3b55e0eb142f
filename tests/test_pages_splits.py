"""Tests for splits (repro.engine.splits) and the remote split sets read
from the stages' task lists."""
import pandas as pd

from repro.cluster import Cluster
from repro.engine.plan import fragment_plan
from repro.engine.scheduler import DynamicScheduler, schedule_query
from repro.engine.splits import SplitSource, SystemSplit
from repro.queries.tpch import q3_plan


class TestSplitSource:
    def _pdf(self, n=1000):
        return pd.DataFrame({"k": range(n), "v": [1.5] * n})

    def test_split_count_matches_scheme(self):
        src = SplitSource("t", self._pdf(), n_nodes=10, splits_per_node=7)
        assert len(src) == 70

    def test_splits_cover_all_rows_disjointly(self):
        pdf = self._pdf(997)  # prime: uneven boundaries
        src = SplitSource("t", pdf, n_nodes=3, splits_per_node=2)
        seen = []
        for s in src.splits:
            seen.extend(range(s.start, s.stop))
        assert seen == list(range(997))

    def test_node_assignment(self):
        src = SplitSource("t", self._pdf(), n_nodes=2, splits_per_node=3)
        assert src.splits[0].node_id == "storage0"
        assert src.splits[3].node_id == "storage1"
        assert src.nodes() == ["storage0", "storage1"]

    def test_bytes_accounting(self):
        pdf = self._pdf()
        src = SplitSource("t", pdf, n_nodes=5, splits_per_node=1)
        total = int(pdf.memory_usage(index=False, deep=True).sum())
        assert abs(src.total_bytes() - total) <= len(src)  # rounding only

    def test_chunk_materializes_rows(self):
        pdf = self._pdf(100)
        src = SplitSource("t", pdf, n_nodes=4, splits_per_node=1)
        chunk = src.chunk(src.splits[1])
        assert list(chunk.k) == list(range(25, 50))

    def test_split_rows_property(self):
        s = SystemSplit("t", 0, "storage0", 10, 30, 1000)
        assert s.rows == 20


class TestRemoteSplitSet:
    """§4.3's remote split set, as the simulator keeps it: a task reads
    from every live task of its child stages, read from their task lists."""

    def _exe(self):
        return schedule_query(fragment_plan(q3_plan()), Cluster.presto_testbed(), stage_dop=2)

    def test_add_and_addresses_sorted(self):
        # a new S1 task reads from the same child tasks as the old ones
        exe = self._exe()
        DynamicScheduler(exe).add_tasks(1, 1)
        assert [t.seq for t in exe.stages[1].tasks] == [0, 1, 2]
        for cid in (2, 3):
            assert exe.tree.parent_of(cid) == 1
            assert [t.seq for t in exe.stages[cid].tasks] == [0, 1]

    def test_ids_never_reused(self):
        # a retired task's id is not handed out again, so a child's buffer
        # never serves two tasks under one id
        exe = self._exe()
        exe.retire_task(exe.stages[1].tasks[0])
        DynamicScheduler(exe).add_tasks(1, 1)
        assert [t.task_id for t in exe.stages[1].tasks] == ["task1_1", "task1_2"]

    def test_remove_task(self):
        # §4.4: a retired S1 task leaves S1's task list, which is the
        # buffer-ID array of S2's and S3's output buffers; they keep theirs
        exe = self._exe()
        exe.retire_task(exe.stages[1].tasks[0])
        assert [t.task_id for t in exe.stages[1].tasks] == ["task1_1"]
        for cid in (2, 3):
            assert [t.seq for t in exe.stages[cid].tasks] == [0, 1]
