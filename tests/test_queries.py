"""Correctness of every workload query against the DuckDB oracle, plus
consistency of the simulator specs (repro.queries)."""
import dataclasses

import pytest

from repro.engine.exec_sim import StageCost
from repro.oracle import assert_equivalent
from repro.queries.catalog import TABLE1, sf100_bytes
from repro.queries.tpch import QUERIES, load_tables, qshuf_sim

SF = 0.005


@pytest.fixture(scope="module")
def tables(spark):
    names = sorted({t for q in QUERIES.values() for t in q.tables})
    return load_tables(spark, names, sf=SF)


class TestSparkVsOracle:
    @pytest.mark.parametrize("name", list(QUERIES))
    def test_query_matches_duckdb(self, spark, tables, name):
        qdef = QUERIES[name]
        sub = {t: tables[t] for t in qdef.tables}
        df = qdef.spark_impl(spark, sub)
        assert_equivalent(df, qdef.duckdb_sql, **sub)

    def test_q3_returns_top10(self, spark, tables):
        qdef = QUERIES["Q3"]
        df = qdef.spark_impl(spark, {t: tables[t] for t in qdef.tables})
        assert df.count() <= 10

    def test_q2j_nonzero_count(self, spark, tables):
        qdef = QUERIES["Q2J"]
        df = qdef.spark_impl(spark, {t: tables[t] for t in qdef.tables})
        assert df.collect()[0]["cnt"] > 0


class TestSimSpecs:
    @pytest.mark.parametrize("name", list(QUERIES))
    def test_costs_cover_all_stages(self, name):
        q = QUERIES[name].sim_query()
        assert set(q.costs) == set(q.tree.stage_ids())

    @pytest.mark.parametrize("name", list(QUERIES))
    def test_scan_volumes_come_from_table1(self, name):
        q = QUERIES[name].sim_query()
        for sid in q.tree.stage_ids():
            frag = q.tree[sid]
            if frag.is_scan:
                table = frag.root.find("table_scan")[0].name
                assert q.costs[sid].scan_bytes == sf100_bytes(table)

    def test_q3_expected_volumes(self):
        q = QUERIES["Q3"].sim_query()
        # S1 probes the date-filtered lineitem (~37 GB at SF100)
        assert q.expected_input_bytes(1) == pytest.approx(0.5 * 74e9)
        # S1's build side is S3's output (orders⋈customer)
        assert q.expected_build_bytes(1) == pytest.approx(0.26 * 0.45 * 16.57e9)

    def test_q2j_build_side_is_full_orders(self):
        q = QUERIES["Q2J"].sim_query()
        assert q.expected_build_bytes(1) == pytest.approx(16.57e9)

    def test_qshuf_variants(self):
        plain = qshuf_sim()
        shuf = qshuf_sim(with_shuffle_stage=True)
        assert len(shuf.tree.stage_ids()) == len(plain.tree.stage_ids()) + 1
        assert shuf.tree[2].is_shuffle
        assert shuf.costs[2].per_task_rate
        # orders pinned to exactly two storage nodes in both (§6.4.2)
        assert plain.pinned_nodes[2] == ["storage0", "storage1"]
        assert shuf.pinned_nodes[3] == ["storage0", "storage1"]

    def test_qshuf_initial_dops(self):
        q = qshuf_sim()
        assert q.initial_stage_dop[1] == 10  # paper: S1 stage DOP 10

    def test_every_cost_knob_is_used(self):
        # a StageCost field that every workload stage leaves at its default
        # is a knob with one value in use: fold it into cluster.calibration
        costs = [c for q in QUERIES.values() for c in q.sim_query().costs.values()]
        costs += qshuf_sim(with_shuffle_stage=True).costs.values()
        unused = [
            f.name for f in dataclasses.fields(StageCost)
            if f.default is not dataclasses.MISSING
            and all(getattr(c, f.name) == f.default for c in costs)
        ]
        assert unused == []

    def test_partitioned_flags(self):
        assert QUERIES["Q2J"].sim_query().tree[1].partitioned
        assert not QUERIES["Q3"].sim_query().tree[1].partitioned


class TestCatalog:
    def test_table1_totals_107gb(self):
        total = sum(t.paper_bytes_sf100 for t in TABLE1.values())
        assert total == pytest.approx(107e9, rel=0.01)

    def test_lineitem_scheme(self):
        t = TABLE1["lineitem"]
        assert (t.n_nodes, t.splits_per_node, t.n_splits) == (10, 7, 70)
        assert t.paper_split_bytes == pytest.approx(1.06e9, rel=0.01)

    def test_scheme_strings(self):
        assert TABLE1["nation"].scheme() == "1 node, 1 split/node"
        assert TABLE1["lineitem"].scheme() == "10 nodes, 7 splits/node"

    def test_split_table_applies_scheme(self):
        from repro.queries.catalog import split_table
        from repro.synth_data import tpch_pandas

        src = split_table("supplier", tpch_pandas("supplier", sf=0.01))
        assert len(src) == 10
        assert src.nodes() == [f"storage{i}" for i in range(10)]
