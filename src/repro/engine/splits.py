"""Splits — how tasks find data (§2 "Driver Execution").

Presto/Accordion use two split types:

* a **system split** tells a table-scan task where to fetch a data chunk
  from (here: a slice of a real pandas table, or a byte range in the
  timing simulator);
* a **remote split** wires an intermediate-stage task to an upstream task
  for data exchange (§4.3's *global remote split set*). The simulator
  models it through the output buffers' buffer-id table
  (``engine.buffers``), not as a type here.

``SplitSource`` partitions a table into splits following the paper's
Table 1 scheme (N nodes x M splits per node).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import pandas as pd


@dataclass(frozen=True)
class SystemSplit:
    """A chunk of a base table: ``table`` rows [start, stop) on ``node_id``."""

    table: str
    split_id: int
    node_id: str
    start: int
    stop: int
    bytes: int

    @property
    def rows(self) -> int:
        return self.stop - self.start


@dataclass
class SplitSource:
    """Partition a pandas table into Table-1-style system splits."""

    table: str
    pdf: pd.DataFrame
    n_nodes: int
    splits_per_node: int
    node_prefix: str = "storage"
    splits: list[SystemSplit] = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.pdf)
        total_splits = self.n_nodes * self.splits_per_node
        total_bytes = int(self.pdf.memory_usage(index=False, deep=True).sum())
        bounds = [round(i * n / total_splits) for i in range(total_splits + 1)]
        self.splits = []
        for i in range(total_splits):
            start, stop = bounds[i], bounds[i + 1]
            frac = (stop - start) / n if n else 0.0
            self.splits.append(
                SystemSplit(
                    table=self.table,
                    split_id=i,
                    node_id=f"{self.node_prefix}{i // self.splits_per_node}",
                    start=start,
                    stop=stop,
                    bytes=int(total_bytes * frac),
                )
            )

    def __len__(self) -> int:
        return len(self.splits)

    def chunk(self, split: SystemSplit) -> pd.DataFrame:
        """Materialize the real rows of a split."""
        return self.pdf.iloc[split.start : split.stop]

    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.splits)

    def nodes(self) -> list[str]:
        return sorted({s.node_id for s in self.splits})

