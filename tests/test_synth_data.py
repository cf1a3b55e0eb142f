"""Tests for the TPC-H-lite generators (repro.synth_data)."""
import pandas as pd
import pytest

from repro import synth_data as sd


class TestPandasGenerators:
    @pytest.mark.parametrize("name", list(sd.TPCH_TABLES))
    def test_generates_nonempty(self, name):
        pdf = sd.tpch_pandas(name, sf=0.001)
        assert len(pdf) >= 1

    @pytest.mark.parametrize("name", list(sd.TPCH_TABLES))
    def test_deterministic(self, name):
        a = sd.tpch_pandas(name, sf=0.001)
        b = sd.tpch_pandas(name, sf=0.001)
        pd.testing.assert_frame_equal(a, b)

    def test_lineitem_columns(self):
        pdf = sd.tpch_pandas("lineitem", sf=0.001)
        for col in ("l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                    "l_extendedprice", "l_discount", "l_returnflag",
                    "l_linestatus", "l_shipdate"):
            assert col in pdf.columns

    def test_lineitem_scales_with_sf(self):
        small = sd.tpch_pandas("lineitem", sf=0.001)
        large = sd.tpch_pandas("lineitem", sf=0.002)
        assert len(large) == 2 * len(small)

    def test_lineitem_orderkey_range(self):
        pdf = sd.tpch_pandas("lineitem", sf=0.001)
        n_orders = len(sd.tpch_pandas("orders", sf=0.001))
        assert pdf.l_orderkey.min() >= 1
        assert pdf.l_orderkey.max() <= n_orders

    def test_lineitem_suppkey_range(self):
        pdf = sd.tpch_pandas("lineitem", sf=0.01)
        n_supp = len(sd.tpch_pandas("supplier", sf=0.01))
        assert pdf.l_suppkey.min() >= 1
        assert pdf.l_suppkey.max() <= n_supp

    def test_orders_primary_key(self):
        pdf = sd.tpch_pandas("orders", sf=0.001)
        assert pdf.o_orderkey.is_unique

    def test_orders_custkey_fk(self):
        pdf = sd.tpch_pandas("orders", sf=0.001)
        n_cust = len(sd.tpch_pandas("customer", sf=0.001))
        assert pdf.o_custkey.between(1, n_cust).all()

    def test_customer_primary_key(self):
        pdf = sd.tpch_pandas("customer", sf=0.001)
        assert pdf.c_custkey.is_unique
        assert pdf.c_nationkey.between(0, 24).all()

    def test_nation_fixed_25_rows(self):
        assert len(sd.tpch_pandas("nation", sf=0.001)) == 25
        assert len(sd.tpch_pandas("nation", sf=1.0)) == 25

    def test_nation_regionkeys_valid(self):
        pdf = sd.tpch_pandas("nation")
        assert pdf.n_regionkey.between(0, 4).all()
        assert pdf.n_nationkey.is_unique

    def test_region_fixed_5_rows(self):
        pdf = sd.tpch_pandas("region")
        assert len(pdf) == 5
        assert set(pdf.r_name) == {"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

    def test_supplier_keys(self):
        pdf = sd.tpch_pandas("supplier", sf=0.01)
        assert pdf.s_suppkey.is_unique
        assert pdf.s_nationkey.between(0, 24).all()

    def test_partsupp_four_suppliers_per_part(self):
        pdf = sd.tpch_pandas("partsupp", sf=0.01)
        n_part = len(sd.tpch_pandas("part", sf=0.01))
        assert len(pdf) == 4 * n_part
        counts = pdf.groupby("ps_partkey").size()
        assert (counts == 4).all()

    def test_partsupp_pk_unique(self):
        pdf = sd.tpch_pandas("partsupp", sf=0.01)
        assert not pdf.duplicated(subset=["ps_partkey", "ps_suppkey"]).any()

    def test_partsupp_suppkey_fk(self):
        pdf = sd.tpch_pandas("partsupp", sf=0.01)
        n_supp = len(sd.tpch_pandas("supplier", sf=0.01))
        assert pdf.ps_suppkey.between(1, n_supp).all()

    def test_part_primary_key(self):
        pdf = sd.tpch_pandas("part", sf=0.001)
        assert pdf.p_partkey.is_unique
        assert pdf.p_size.between(1, 50).all()

    def test_dates_in_expected_range(self):
        li = sd.tpch_pandas("lineitem", sf=0.001)
        assert li.l_shipdate.min() >= pd.Timestamp("1992-01-01")
        assert li.l_shipdate.max() <= pd.Timestamp("1999-01-01")
        o = sd.tpch_pandas("orders", sf=0.001)
        assert o.o_orderdate.max() <= pd.Timestamp("1998-09-01")

    def test_registry_covers_table1_tables(self):
        assert set(sd.TPCH_TABLES) == {
            "nation", "region", "supplier", "part", "partsupp",
            "customer", "orders", "lineitem",
        }


class TestSparkGenerators:
    def test_lineitem_spark(self, spark):
        df = sd.lineitem(spark, sf=0.001)
        assert df.count() == len(sd.tpch_pandas("lineitem", sf=0.001))
        assert "l_suppkey" in df.columns

    def test_nation_spark(self, spark):
        assert sd.nation(spark).count() == 25

    def test_spark_matches_pandas(self, spark):
        got = sd.supplier(spark, sf=0.01).toPandas()
        want = sd.tpch_pandas("supplier", sf=0.01)
        pd.testing.assert_frame_equal(
            got.sort_values("s_suppkey").reset_index(drop=True),
            want.sort_values("s_suppkey").reset_index(drop=True),
            check_dtype=False,
        )
