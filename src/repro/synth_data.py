"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.

A generator calls only ``spark.createDataFrame(pdf)``, so any object with
that method serves as ``spark``: ``tpch_pandas`` passes one that returns
the pandas frame itself, and Table 1 never starts Spark.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000
_N_SUPPLIER_PER_SF = 10_000
_N_PARTSUPP_PER_SF = 800_000

#: The 25 TPC-H nations (name, regionkey) — fixed-size dimension tables are
#: generated at every scale factor, exactly as in TPC-H.
_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_suppkey": g.integers(1, max(1, int(_N_SUPPLIER_PER_SF * sf)) + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def nation(spark: SparkSession, *, sf: float = 0.01, seed: int = 6) -> DataFrame:
    """The 25-row TPC-H nation table (fixed size at every SF)."""
    del sf, seed  # fixed-size dimension table; kwargs kept for API symmetry
    pdf = pd.DataFrame(
        {
            "n_nationkey": np.arange(len(_NATIONS)),
            "n_name": [n for n, _ in _NATIONS],
            "n_regionkey": [r for _, r in _NATIONS],
        }
    )
    return spark.createDataFrame(pdf)


def region(spark: SparkSession, *, sf: float = 0.01, seed: int = 7) -> DataFrame:
    """The 5-row TPC-H region table (fixed size at every SF)."""
    del sf, seed
    pdf = pd.DataFrame(
        {"r_regionkey": np.arange(len(_REGIONS)), "r_name": _REGIONS}
    )
    return spark.createDataFrame(pdf)


def supplier(spark: SparkSession, *, sf: float = 0.01, seed: int = 8) -> DataFrame:
    n = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n + 1),
            "s_nationkey": g.integers(0, 25, n),
            "s_acctbal": (g.random(n) * 10000 - 1000).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def partsupp(spark: SparkSession, *, sf: float = 0.01, seed: int = 9) -> DataFrame:
    """partsupp with 4 suppliers per part, as in TPC-H (ps key pairs unique)."""
    n_part = max(1, int(_N_PART_PER_SF * sf))
    n_supp = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    partkeys = np.repeat(np.arange(1, n_part + 1), 4)
    # 4 distinct suppliers per part, TPC-H style: (partkey + i*step) % n_supp
    offsets = np.tile(np.arange(4), n_part)
    suppkeys = (partkeys + offsets * max(1, n_supp // 4)) % n_supp + 1
    n = len(partkeys)
    pdf = pd.DataFrame(
        {
            "ps_partkey": partkeys,
            "ps_suppkey": suppkeys,
            "ps_availqty": g.integers(1, 10000, n),
            "ps_supplycost": (g.random(n) * 1000 + 1).round(2),
        }
    )
    return spark.createDataFrame(pdf)


#: name → generator, for every TPC-H-lite base table (Table 1 of the paper).
TPCH_TABLES = {
    "nation": nation,
    "region": region,
    "supplier": supplier,
    "part": part,
    "partsupp": partsupp,
    "customer": customer,
    "orders": orders,
    "lineitem": lineitem,
}


def tpch_pandas(name: str, *, sf: float = 0.01) -> pd.DataFrame:
    """Generate one TPC-H-lite table directly as pandas (no Spark session).

    The engine's split source and the DuckDB oracle both consume pandas;
    this avoids a Spark round-trip when only local data is needed. Uses the
    same deterministic seeds as the Spark generators.
    """

    class _Cap:  # minimal stand-in exposing createDataFrame → pandas
        def createDataFrame(self, pdf):
            return pdf

    return TPCH_TABLES[name](_Cap(), sf=sf)  # type: ignore[arg-type]
