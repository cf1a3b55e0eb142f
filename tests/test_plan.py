"""Tests for plan nodes and fragmentation (repro.engine.plan)."""
import ast
from pathlib import Path

import pytest

from repro.engine import plan as P
from repro.queries.tpch import q2_plan, q2j_plan, q3_plan


def _table_of(frag):
    return frag.root.find(P.TABLE_SCAN)[0].name


class TestPlanNodes:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            P.PlanNode("bogus")

    def test_walk_and_find(self):
        pl = q3_plan()
        scans = pl.find(P.TABLE_SCAN)
        assert {s.name for s in scans} == {"lineitem", "orders", "customer"}
        assert len(pl.find(P.HASH_JOIN)) == 2

    def test_join_probe_is_first_child(self):
        j = P.hash_join(P.scan("probe_side"), P.scan("build_side"), partitioned=True)
        assert j.children[0].name == "probe_side"
        assert j.props["partitioned"] is True

    def test_constructors_set_props(self):
        t = P.topn(P.scan("x"), n=5)
        assert t.props["n"] == 5
        f = P.filter_(P.scan("x"), "pred")
        assert f.name == "pred"


class TestFragmentation:
    def test_q3_stage_numbering_matches_paper(self):
        """Fig. 21: S0 output/final, S1 join(lineitem), S2 scan lineitem,
        S3 join(orders,customer), S4 scan orders, S5 scan customer."""
        tree = P.fragment_plan(q3_plan())
        assert tree.stage_ids() == [0, 1, 2, 3, 4, 5]
        assert _table_of(tree[2]) == "lineitem"
        assert _table_of(tree[4]) == "orders"
        assert _table_of(tree[5]) == "customer"
        assert tree[1].has_join and tree[3].has_join
        assert not tree[0].has_join

    def test_q3_probe_build_roles(self):
        tree = P.fragment_plan(q3_plan())
        assert tree[1].main_source.child_stage_id == 2
        assert tree[1].build_source.child_stage_id == 3
        assert tree[3].main_source.child_stage_id == 4
        assert tree[3].build_source.child_stage_id == 5
        assert tree[0].main_source.child_stage_id == 1  # a non-join input
        assert tree[2].main_source is None and tree[2].build_source is None

    def test_parent_of(self):
        tree = P.fragment_plan(q3_plan())
        assert tree.parent_of(1) == 0
        assert tree.parent_of(2) == 1
        assert tree.parent_of(5) == 3
        assert tree.parent_of(0) is None

    def test_topological_children_first(self):
        tree = P.fragment_plan(q3_plan())
        order = tree.topological()
        assert order.index(2) < order.index(1)
        assert order.index(5) < order.index(3) < order.index(1)
        assert order[-1] == 0

    def test_remote_source_nodes_in_fragments(self):
        tree = P.fragment_plan(q2j_plan())
        srcs = tree[1].root.find(P.REMOTE_SOURCE)
        assert {s.props["role"] for s in srcs} == {"probe", "build"}

    def test_explicit_stage_ids_q2(self):
        """§6.5.2: Q2's subquery aggregation is S10, its scan S11."""
        root, ids = q2_plan()
        tree = P.fragment_plan(root, stage_ids=ids)
        assert sorted(tree.stage_ids()) == list(range(13))
        assert _table_of(tree[2]) == "partsupp"   # upstream scan of S1
        assert _table_of(tree[11]) == "partsupp"  # upstream scan of S10
        assert not tree[10].is_scan                 # S10 is the agg stage
        assert tree.parent_of(11) == 10
        assert tree[1].main_source.child_stage_id == 2

    def test_stage_ids_too_short_raises(self):
        with pytest.raises(ValueError):
            P.fragment_plan(q3_plan(), stage_ids=[0, 1])

    def test_shuffle_fragment_detection(self):
        pl = P.output(
            P.final_agg(P.exchange(P.shuffle_stage_node(P.exchange(P.scan("orders")))))
        )
        tree = P.fragment_plan(pl)
        assert tree[1].is_shuffle
        assert _table_of(tree[2]) == "orders"

    def test_contains_and_getitem(self):
        tree = P.fragment_plan(q2j_plan())
        assert 1 in tree
        assert 99 not in tree
        assert tree[0].stage_id == 0

    def test_single_fragment_plan(self):
        tree = P.fragment_plan(P.output(P.scan("t")))
        assert tree.stage_ids() == [0]
        assert tree[0].is_scan

    def test_two_joins_in_one_fragment_rejected(self):
        inner = P.hash_join(P.scan("a"), P.exchange(P.scan("b")), partitioned=False)
        with pytest.raises(ValueError, match="at most one join"):
            P.fragment_plan(P.output(P.hash_join(inner, P.exchange(P.scan("c")), partitioned=True)))


PLAN = Path(P.__file__)
SRC = PLAN.parents[1]
#: the node-kind constants (``TABLE_SCAN``, ``HASH_JOIN``, ...)
KIND_NAMES = {
    name for name, value in vars(P).items()
    if name.isupper() and isinstance(value, str) and value in P.ALL_KINDS
}


def plan_node_reads(path: Path) -> list[tuple[int, str]]:
    """(line, access) for each place ``path`` reads plan nodes: a
    ``.find(``/``.walk(`` call or a node-kind constant."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("find", "walk")):
            reads.append((node.lineno, f".{node.func.attr}("))
        elif isinstance(node, ast.ImportFrom):
            reads += [(node.lineno, a.name) for a in node.names if a.name in KIND_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in KIND_NAMES:
            reads.append((node.lineno, node.attr))
    return reads


class TestOneShapeReader:
    """``Fragment`` derives a stage's shape once; every other module reads
    its fields and builds plans only through the constructors."""

    @pytest.mark.parametrize(
        "name", sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*.py") if p != PLAN)
    )
    def test_module_reads_no_plan_nodes(self, name):
        assert plan_node_reads(SRC / name) == []

    def test_detector_flags_each_read(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "from repro.engine.plan import HASH_JOIN, fragment_plan\n"
            "P.SHUFFLE\n"
            "root.find(P.scan('t'))\n"
            "root.walk()\n"
        )
        assert sorted(plan_node_reads(mod)) == [
            (1, "HASH_JOIN"), (2, "SHUFFLE"), (3, ".find("), (4, ".walk("),
        ]
