"""Physical plan nodes and fragmentation into a stage tree (§2, Fig. 4).

The optimizer inserts **exchange** nodes into the physical plan; the plan
is then cut at exchange boundaries into fragments, one per execution stage.
Each fragment keeps a ``RemoteSourceRef`` where an exchange used to be,
remembering which child stage feeds it and whether that feed is the
**build** or **probe** side of a join — that distinction is what drives
execution dependencies (§6.2: "stage 3 exhibits an execution dependency on
stage 1") and DOP-switching (§4.5).

A ``Fragment`` states its stage's shape (scan, join kind, pin, main and
build input) once; no other module reads plan nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

# ---------------------------------------------------------------- node kinds
TABLE_SCAN = "table_scan"
FILTER = "filter"
HASH_JOIN = "hash_join"
PARTIAL_AGG = "partial_agg"
FINAL_AGG = "final_agg"
TOPN = "topn"
EXCHANGE = "exchange"
OUTPUT = "output"
REMOTE_SOURCE = "remote_source"
#: A dedicated shuffle stage (§4.6) is a fragment holding only this node
#: (exchange in -> task output out, shuffle buffer does the partitioning).
SHUFFLE = "shuffle"

ALL_KINDS = {
    TABLE_SCAN, FILTER, HASH_JOIN, PARTIAL_AGG, FINAL_AGG, TOPN, EXCHANGE,
    OUTPUT, REMOTE_SOURCE, SHUFFLE,
}


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
def scan(table: str) -> PlanNode:
    return PlanNode(TABLE_SCAN, name=table)


def filter_(child: PlanNode, predicate: str = "") -> PlanNode:
    return PlanNode(FILTER, [child], name=predicate)


def exchange(child: PlanNode) -> PlanNode:
    return PlanNode(EXCHANGE, [child])


def hash_join(probe: PlanNode, build: PlanNode, *, partitioned: bool, on: str = "") -> PlanNode:
    """Join node; ``partitioned=False`` means broadcast hash join (§4.5)."""
    return PlanNode(HASH_JOIN, [probe, build], name=on, props={"partitioned": partitioned})


def partial_agg(child: PlanNode) -> PlanNode:
    return PlanNode(PARTIAL_AGG, [child])


def final_agg(child: PlanNode) -> PlanNode:
    return PlanNode(FINAL_AGG, [child])


def topn(child: PlanNode, n: int = 10) -> PlanNode:
    return PlanNode(TOPN, [child], props={"n": n})


def output(child: PlanNode) -> PlanNode:
    return PlanNode(OUTPUT, [child])


def shuffle_stage_node(child: PlanNode) -> PlanNode:
    return PlanNode(SHUFFLE, [child])


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
    """One stage's plan fragment plus its remote-source wiring, and the
    stage's shape, derived once from its nodes: how the stage may be tuned."""

    stage_id: int
    root: PlanNode
    sources: list[RemoteSourceRef] = field(default_factory=list)
    #: a progress indicator (§5.2): the stage reads a table.
    is_scan: bool = field(init=False)
    #: the stage holds a hash join, rebuilt on a DOP change (§4.5) ...
    has_join: bool = field(init=False)
    #: ... a partitioned one, which switches to a new task group.
    partitioned: bool = field(init=False)
    #: a dedicated shuffle stage (§4.6).
    is_shuffle: bool = field(init=False)
    #: §4.1: a final aggregation or top-N pins the stage to one task. A
    #: join build is stateful too, but a DOP change rebuilds it (§4.5).
    pinned: bool = field(init=False)
    #: the probe source of a join, else the fragment's one input; None
    #: when only a table feeds the main input (a scan).
    main_source: Optional[RemoteSourceRef] = field(init=False)
    build_source: Optional[RemoteSourceRef] = field(init=False)

    def __post_init__(self) -> None:
        kinds = [n.kind for n in self.root.walk()]
        joins = self.root.find(HASH_JOIN)
        if len(joins) > 1:
            raise ValueError(f"stage {self.stage_id}: at most one join per fragment supported")
        self.is_scan = TABLE_SCAN in kinds
        self.has_join = bool(joins)
        self.partitioned = bool(joins and joins[0].props.get("partitioned"))
        self.is_shuffle = SHUFFLE in kinds
        self.pinned = FINAL_AGG in kinds or TOPN in kinds
        self.main_source = next((s for s in self.sources if s.role != "build"), None)
        self.build_source = next((s for s in self.sources if s.role == "build"), None)

    def source_stage_ids(self) -> list[int]:
        return [s.child_stage_id for s in self.sources]


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
            if n.kind == HASH_JOIN:
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
