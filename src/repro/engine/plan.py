"""Physical plan nodes and fragmentation into a stage tree (§2, Fig. 4).

The optimizer inserts **exchange** nodes (and **local exchange** nodes) into
the physical plan; the plan is then cut at exchange boundaries into
fragments, one per execution stage. Each fragment keeps a ``RemoteSourceRef``
where an exchange used to be, remembering which child stage feeds it and
whether that feed is the **build** or **probe** side of a join — that
distinction is what drives execution dependencies (§6.2: "stage 3 exhibits
an execution dependency on stage 1") and DOP-switching (§4.5).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

# ---------------------------------------------------------------- node kinds
TABLE_SCAN = "table_scan"
FILTER = "filter"
PROJECT = "project"
HASH_JOIN = "hash_join"
CROSS_JOIN = "cross_join"
PARTIAL_AGG = "partial_agg"
FINAL_AGG = "final_agg"
TOPN = "topn"
EXCHANGE = "exchange"
LOCAL_EXCHANGE = "local_exchange"
OUTPUT = "output"
REMOTE_SOURCE = "remote_source"
#: A dedicated shuffle stage (§4.6) is a fragment holding only this node
#: (exchange in -> task output out, shuffle buffer does the partitioning).
SHUFFLE = "shuffle"

ALL_KINDS = {
    TABLE_SCAN, FILTER, PROJECT, HASH_JOIN, CROSS_JOIN, PARTIAL_AGG,
    FINAL_AGG, TOPN, EXCHANGE, LOCAL_EXCHANGE, OUTPUT, REMOTE_SOURCE, SHUFFLE,
}

# ------------------------------------------------- §4.1 operator classification
#: Operators whose DOP may be tuned freely. Partial aggregation counts as
#: stateless: its state can be dropped and rebuilt (two-phase aggregation).
#: A join runs as a stateless probe plus a stateful build; a local exchange
#: as a sink/source pair; a fragment's root feeds the task output.
STATELESS_KINDS = frozenset({
    "filter", "project", "sink", "source", "exchange", "task_output",
    "table_scan", "partial_agg", "shuffle", "probe", "topn_partial",
})
#: Operators whose state pins parallelism. A join build is rebuilt on a DOP
#: change (§4.5); the others pin their stage to one task.
STATEFUL_KINDS = frozenset({"final_agg", "build", "cross_join_build", "topn"})
_REBUILT_KINDS = frozenset({"build", "cross_join_build"})


def is_stateless(kind: str) -> bool:
    if kind in STATELESS_KINDS:
        return True
    if kind in STATEFUL_KINDS:
        return False
    raise ValueError(f"unclassified operator kind: {kind}")


def pins_stage(root: PlanNode) -> bool:
    """§4.1: a fragment holding a stateful operator that no rebuild can
    redistribute (final aggregation, top-N) runs as a single task."""
    return any(n.kind in STATEFUL_KINDS - _REBUILT_KINDS for n in root.walk())


@dataclass
class PlanNode:
    """One physical plan node. ``children`` order matters for joins:
    ``children[0]`` is the probe side, ``children[1]`` the build side."""

    kind: str
    children: list["PlanNode"] = field(default_factory=list)
    name: str = ""
    props: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown plan node kind: {self.kind}")

    def walk(self) -> Iterator["PlanNode"]:
        yield self
        for c in self.children:
            yield from c.walk()

    def find(self, kind: str) -> list["PlanNode"]:
        return [n for n in self.walk() if n.kind == kind]


# ------------------------------------------------------------- constructors
def scan(table: str, **props) -> PlanNode:
    return PlanNode(TABLE_SCAN, name=table, props=props)


def filter_(child: PlanNode, predicate: str = "", **props) -> PlanNode:
    return PlanNode(FILTER, [child], name=predicate, props=props)


def project(child: PlanNode, **props) -> PlanNode:
    return PlanNode(PROJECT, [child], props=props)


def exchange(child: PlanNode, **props) -> PlanNode:
    return PlanNode(EXCHANGE, [child], props=props)


def local_exchange(child: PlanNode, **props) -> PlanNode:
    return PlanNode(LOCAL_EXCHANGE, [child], props=props)


def hash_join(probe: PlanNode, build: PlanNode, *, partitioned: bool, on: str = "", **props) -> PlanNode:
    """Join node; ``partitioned=False`` means broadcast hash join (§4.5)."""
    return PlanNode(HASH_JOIN, [probe, build], name=on, props={"partitioned": partitioned, **props})


def partial_agg(child: PlanNode, **props) -> PlanNode:
    return PlanNode(PARTIAL_AGG, [child], props=props)


def final_agg(child: PlanNode, **props) -> PlanNode:
    return PlanNode(FINAL_AGG, [child], props=props)


def topn(child: PlanNode, n: int = 10, **props) -> PlanNode:
    return PlanNode(TOPN, [child], props={"n": n, **props})


def output(child: PlanNode, **props) -> PlanNode:
    return PlanNode(OUTPUT, [child], props=props)


def shuffle_stage_node(child: PlanNode, **props) -> PlanNode:
    return PlanNode(SHUFFLE, [child], props=props)


# ------------------------------------------------------------- fragmentation
@dataclass
class RemoteSourceRef:
    """Placeholder left in a fragment where an exchange was cut.

    ``role`` is "probe", "build", or "input" (non-join feed).
    """

    child_stage_id: int
    role: str = "input"


@dataclass
class Fragment:
    """One stage's plan fragment plus its remote-source wiring."""

    stage_id: int
    root: PlanNode
    sources: list[RemoteSourceRef] = field(default_factory=list)

    def source_stage_ids(self) -> list[int]:
        return [s.child_stage_id for s in self.sources]

    def probe_source(self) -> Optional[RemoteSourceRef]:
        return next((s for s in self.sources if s.role == "probe"), None)

    def build_source(self) -> Optional[RemoteSourceRef]:
        return next((s for s in self.sources if s.role == "build"), None)

    def has_join(self) -> bool:
        return bool(self.root.find(HASH_JOIN) or self.root.find(CROSS_JOIN))

    def is_scan(self) -> bool:
        return bool(self.root.find(TABLE_SCAN))

    def is_shuffle(self) -> bool:
        return bool(self.root.find(SHUFFLE))

    def scan_table(self) -> Optional[str]:
        scans = self.root.find(TABLE_SCAN)
        return scans[0].name if scans else None


@dataclass
class StageTree:
    """All fragments of a query, keyed by stage id; stage 0 is the root."""

    fragments: dict[int, Fragment]
    root_id: int = 0

    def __getitem__(self, stage_id: int) -> Fragment:
        return self.fragments[stage_id]

    def __contains__(self, stage_id: int) -> bool:
        return stage_id in self.fragments

    def stage_ids(self) -> list[int]:
        return sorted(self.fragments)

    def children_of(self, stage_id: int) -> list[int]:
        return self.fragments[stage_id].source_stage_ids()

    def parent_of(self, stage_id: int) -> Optional[int]:
        for sid, frag in self.fragments.items():
            if stage_id in frag.source_stage_ids():
                return sid
        return None

    def topological(self) -> list[int]:
        """Leaves (scans) first, root last."""
        order: list[int] = []
        seen: set[int] = set()

        def visit(sid: int) -> None:
            if sid in seen:
                return
            seen.add(sid)
            for c in self.children_of(sid):
                visit(c)
            order.append(sid)

        visit(self.root_id)
        return order


def fragment_plan(root: PlanNode, *, stage_ids: Optional[list[int]] = None) -> StageTree:
    """Cut a physical plan at exchange boundaries into a stage tree.

    Stages are numbered in depth-first pre-order of exchange discovery —
    root fragment first — which matches the paper's numbering (stage 0 is
    the output/final fragment, deeper fragments get larger ids, Fig. 4).
    ``stage_ids`` overrides the assignment (some paper plans skip numbers,
    e.g. Q2's S10/S11 in §6.5.2): it is consumed in discovery order.
    """
    fragments: dict[int, Fragment] = {}
    counter = iter(stage_ids) if stage_ids is not None else None
    next_default = [0]

    def alloc_id() -> int:
        if counter is not None:
            try:
                return next(counter)
            except StopIteration as exc:  # pragma: no cover - misuse guard
                raise ValueError("stage_ids shorter than fragment count") from exc
        sid = next_default[0]
        next_default[0] += 1
        return sid

    def build_fragment(node: PlanNode) -> int:
        sid = alloc_id()
        sources: list[RemoteSourceRef] = []

        def cut(n: PlanNode, role: str) -> PlanNode:
            if n.kind == EXCHANGE:
                child_sid = build_fragment(n.children[0])
                sources.append(RemoteSourceRef(child_sid, role))
                return PlanNode(REMOTE_SOURCE, props={"stage_id": child_sid, "role": role})
            if n.kind in (HASH_JOIN, CROSS_JOIN):
                probe = cut(n.children[0], "probe")
                build = cut(n.children[1], "build")
                return PlanNode(n.kind, [probe, build], name=n.name, props=dict(n.props))
            return PlanNode(
                n.kind, [cut(c, role) for c in n.children], name=n.name, props=dict(n.props)
            )

        new_root = cut(node, "input")
        fragments[sid] = Fragment(stage_id=sid, root=new_root, sources=sources)
        return sid

    root_id = build_fragment(root)
    return StageTree(fragments=fragments, root_id=root_id)
