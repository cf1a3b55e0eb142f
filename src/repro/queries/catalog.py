"""Table 1 — TPCH-SF100 table setup (partitioning scheme + volumes).

The paper stores TPC-H SF100 (107 GB total) as CSV, manually divided into
splits: nation/region on 1 node with 1 split; supplier..orders on 10
nodes with 1 split per node; lineitem on 10 nodes with 7 splits per node.
This module carries those reference volumes (the timing simulator runs at
the paper's byte volumes) and the scheme itself (applied to real
TPC-H-lite data by ``repro.engine.splits.SplitSource`` for the Table 1
reproduction at laptop scale).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.splits import SplitSource

if TYPE_CHECKING:
    import pandas as pd

KB = 1e3
MB = 1e6
GB = 1e9


@dataclass(frozen=True)
class TableSetup:
    """One row of Table 1."""

    table: str
    n_nodes: int
    splits_per_node: int
    paper_bytes_sf100: float

    @property
    def n_splits(self) -> int:
        return self.n_nodes * self.splits_per_node

    @property
    def paper_split_bytes(self) -> float:
        return self.paper_bytes_sf100 / self.n_splits

    def scheme(self) -> str:
        s = "split" if self.splits_per_node == 1 else "splits"
        n = "node" if self.n_nodes == 1 else "nodes"
        return f"{self.n_nodes} {n}, {self.splits_per_node} {s}/node"


#: Table 1 of the paper, verbatim (sizes are the paper's SF100 numbers).
TABLE1: dict[str, TableSetup] = {
    "nation": TableSetup("nation", 1, 1, 2.5 * KB),
    "region": TableSetup("region", 1, 1, 512.0),
    "supplier": TableSetup("supplier", 10, 1, 137 * MB),
    "part": TableSetup("part", 10, 1, 2.29 * GB),
    "partsupp": TableSetup("partsupp", 10, 1, 11.37 * GB),
    "customer": TableSetup("customer", 10, 1, 2.29 * GB),
    "orders": TableSetup("orders", 10, 1, 16.57 * GB),
    "lineitem": TableSetup("lineitem", 10, 7, 74 * GB),
}

#: Paper total: "TPCH-SF100 Table Setup — Total 107GB".
PAPER_TOTAL_BYTES = sum(t.paper_bytes_sf100 for t in TABLE1.values())


def sf100_bytes(table: str) -> float:
    """Byte volume of a table at the paper's SF100 (simulator input)."""
    return TABLE1[table].paper_bytes_sf100


def split_table(table: str, pdf: pd.DataFrame) -> SplitSource:
    """Partition a real table per its Table 1 scheme."""
    setup = TABLE1[table]
    return SplitSource(
        table=table,
        pdf=pdf,
        n_nodes=setup.n_nodes,
        splits_per_node=setup.splits_per_node,
    )


def build_setup_rows(sf: float) -> list[dict]:
    """The Table 1 reproduction: generate each TPC-H-lite table at ``sf``,
    partition it with the paper's scheme, and measure actual sizes.

    Returns one dict per table with both measured (at ``sf``) and paper
    (SF100) numbers so EXPERIMENTS.md can show them side by side.
    """
    from repro.synth_data import tpch_pandas

    rows = []
    for name, setup in TABLE1.items():
        pdf = tpch_pandas(name, sf=sf)
        src = split_table(name, pdf)
        total = src.total_bytes()
        rows.append(
            {
                "table": name.capitalize(),
                "partitioning": setup.scheme(),
                "n_splits": len(src),
                "rows": len(pdf),
                "measured_bytes": total,
                "measured_split_bytes": total / len(src),
                "paper_bytes_sf100": setup.paper_bytes_sf100,
                "paper_split_bytes_sf100": setup.paper_split_bytes,
            }
        )
    return rows
