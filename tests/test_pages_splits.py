"""Tests for splits (repro.engine.splits)."""
import pandas as pd
import pytest

from repro.engine.splits import RemoteSplit, RemoteSplitSet, SplitSource, SystemSplit


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
    def test_add_and_addresses_sorted(self):
        rs = RemoteSplitSet()
        rs.add(RemoteSplit("http://b/t2", "t2"))
        rs.add(RemoteSplit("http://a/t1", "t1"))
        assert [s.task_id for s in rs.addresses()] == ["t1", "t2"]

    def test_add_idempotent(self):
        rs = RemoteSplitSet()
        rs.add(RemoteSplit("http://a/t1", "t1"))
        rs.add(RemoteSplit("http://a/t1", "t1"))
        assert len(rs.addresses()) == 1

    def test_remove_task(self):
        # §4.4: parents delete a closed task's RPC address
        rs = RemoteSplitSet()
        rs.add(RemoteSplit("http://a/t1", "t1"))
        rs.add(RemoteSplit("http://b/t2", "t2"))
        rs.remove_task("t1")
        assert [s.task_id for s in rs.addresses()] == ["t2"]
