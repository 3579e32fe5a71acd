import dataclasses
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given
import hypothesis.strategies as st

from strongedge import (
    CotreeLeaf,
    DecompositionError,
    DecompositionTree,
    JoinNode,
    TreeLeaf,
    UnionNode,
    build_graph,
    complement,
    im,
    is_tree,
    parse_decomposition,
    random_labeled_tree,
    random_tree_cograph,
    realize,
    sci,
    serialize_decomposition,
    strong_coloring,
    tree_from_prufer,
)

from strategies import _bench_instance, decomposition_docs, decomposition_trees

K2_LEAF = '{"type":"tree","n":2,"edges":[[0,1]]}'
JOIN_K2_K2 = f'{{"type":"join","children":[{K2_LEAF},{K2_LEAF}]}}'
UNION_K2_K2 = f'{{"type":"union","children":[{K2_LEAF},{K2_LEAF}]}}'


def test_parse_single_leaf():
    t = parse_decomposition(K2_LEAF)
    assert t.n == 2 and t.m == 1
    assert isinstance(t.root, TreeLeaf)


def test_parse_join_of_edges_realizes_k4():
    t = parse_decomposition(JOIN_K2_K2)
    assert t.m == 1 + 1 + 4
    g = realize(t)
    assert g.n == 4 and set(g.edges) == {
        (u, v) for u in range(4) for v in range(u + 1, 4)
    }


def test_realize_union_and_cotree():
    t = parse_decomposition(UNION_K2_K2)
    g = realize(t)
    assert (g.n, g.m) == (4, 2) and set(g.edges) == {(0, 1), (2, 3)}
    star = '{"type":"cotree","n":4,"edges":[[0,1],[0,2],[0,3]]}'
    h = realize(parse_decomposition(star))
    # complement of a star: triangle on the leaves plus the isolated center
    assert set(h.edges) == {(1, 2), (1, 3), (2, 3)} and h.degree(0) == 0

def test_single_vertex_leaves():
    k1 = parse_decomposition('{"type":"tree","n":1,"edges":[]}')
    assert (k1.n, k1.m) == (1, 0)
    co = parse_decomposition('{"type":"cotree","n":2,"edges":[[0,1]]}')
    assert (co.n, co.m) == (2, 0)
    assert realize(co).m == 0


def test_parse_rejects_non_tree_leaf():
    doc = '{"type":"tree","n":3,"edges":[[0,1],[1,2],[0,2]]}'
    with pytest.raises(DecompositionError, match="leaf graph is not a tree"):
        parse_decomposition(doc)
    forest = '{"type":"tree","n":4,"edges":[[0,1],[2,3]]}'
    with pytest.raises(DecompositionError, match="leaf graph is not a tree"):
        parse_decomposition(forest)


def test_oversized_edgeless_leaf_is_rejected_before_it_is_built():
    # a few bytes of document must not cost memory in proportion to n
    for kind in ("tree", "cotree"):
        doc = f'{{"type":"{kind}","n":1000000,"edges":[]}}'
        tracemalloc.start()
        try:
            with pytest.raises(DecompositionError, match=r"^\$: leaf graph is not a tree$"):
                parse_decomposition(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_parse_error_paths_name_the_leaf():
    doc = f'{{"type":"join","children":[{K2_LEAF},{{"type":"tree","n":2,"edges":[]}}]}}'
    with pytest.raises(DecompositionError, match=r"\$\.children\[1\]"):
        parse_decomposition(doc)


def test_parse_rejects_malformed_json_with_position():
    with pytest.raises(DecompositionError, match="line 1 column"):
        parse_decomposition("{nope")


def test_parse_rejects_unknown_keys_and_types():
    with pytest.raises(DecompositionError, match="unexpected keys"):
        parse_decomposition('{"type":"tree","n":1,"edges":[],"extra":1}')
    with pytest.raises(DecompositionError, match="unknown node type"):
        parse_decomposition('{"type":"leaf","n":1,"edges":[]}')
    with pytest.raises(DecompositionError, match="missing 'type'"):
        parse_decomposition('{"n":1,"edges":[]}')
    with pytest.raises(DecompositionError, match="positive integer"):
        parse_decomposition('{"type":"tree","n":true,"edges":[]}')


def test_parse_rejects_too_few_children():
    with pytest.raises(DecompositionError, match="children"):
        parse_decomposition(f'{{"type":"union","children":[{K2_LEAF}]}}')


def test_parse_rejects_excessive_nesting():
    deep = '{"type":"union","children":[' * 5000
    deep += K2_LEAF + "," + K2_LEAF
    deep += "]}" * 5000
    with pytest.raises(DecompositionError, match="nesting"):
        parse_decomposition(deep)


def test_kary_children_normalize_to_left_leaning_chains():
    for kind in ("union", "join"):
        flat = f'{{"type":"{kind}","children":[{K2_LEAF},{K2_LEAF},{K2_LEAF}]}}'
        nested = (
            f'{{"type":"{kind}","children":['
            f'{{"type":"{kind}","children":[{K2_LEAF},{K2_LEAF}]}},{K2_LEAF}]}}'
        )
        assert serialize_decomposition(parse_decomposition(flat)) == (
            serialize_decomposition(parse_decomposition(nested))
        )


def test_node_aliasing_is_rejected():
    leaf = TreeLeaf(build_graph(2, [(0, 1)]))
    with pytest.raises(DecompositionError, match="more than once"):
        DecompositionTree(UnionNode(leaf, leaf))


def test_non_nodes_are_rejected():
    leaf = TreeLeaf(build_graph(2, [(0, 1)]))
    with pytest.raises(DecompositionError, match="not a decomposition node"):
        DecompositionTree(UnionNode(leaf, "leaf"))
    with pytest.raises(DecompositionError, match="not a decomposition node"):
        JoinNode(leaf, "x")
    with pytest.raises(DecompositionError, match="not a decomposition node"):
        DecompositionTree("leaf")


def test_internal_nodes_are_immutable():
    leaf = TreeLeaf(build_graph(2, [(0, 1)]))
    node = JoinNode(leaf, TreeLeaf(build_graph(1, [])))
    assert (node.n, node.m) == (3, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.right = leaf


def test_leaves_check_their_tree_at_construction():
    triangle = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    forest = build_graph(4, [(0, 1), (2, 3)])
    for cls, t in ((TreeLeaf, triangle), (CotreeLeaf, forest), (TreeLeaf, "not a graph")):
        with pytest.raises(DecompositionError, match="leaf graph is not a tree"):
            cls(t)


def test_each_leaf_is_checked_once(monkeypatch):
    text = serialize_decomposition(random_tree_cograph(10, 4, 6))
    real = is_tree
    calls = []

    def counting_is_tree(t):
        calls.append(t)
        return real(t)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "strongedge" and getattr(module, "is_tree", None) is real:
            monkeypatch.setattr(module, "is_tree", counting_is_tree)
    tree = parse_decomposition(text)
    sci(tree)
    im(tree)
    strong_coloring(tree)
    leaves = [node for node in tree.order if isinstance(node, (TreeLeaf, CotreeLeaf))]
    assert {type(leaf) for leaf in leaves} == {TreeLeaf, CotreeLeaf}
    assert len(calls) == len(leaves)


def _postorder(node):
    if isinstance(node, (TreeLeaf, CotreeLeaf)):
        return [node]
    return _postorder(node.left) + _postorder(node.right) + [node]


@given(decomposition_trees())
def test_order_lists_each_node_once_children_first(t):
    # post-order puts every child before its parent
    assert t.order == _postorder(t.root)
    assert len({id(node) for node in t.order}) == len(t.order)


def test_folds_run_on_hand_built_chains_10_5_deep():
    k2 = build_graph(2, [(0, 1)])
    depth = 10**5
    for leftward in (True, False):
        node = TreeLeaf(k2)
        for _ in range(depth):
            leaf = TreeLeaf(k2)
            node = UnionNode(node, leaf) if leftward else UnionNode(leaf, node)
        t = DecompositionTree(node)
        assert len(t.order) == 2 * depth + 1
        assert sci(t).value == 1
        assert im(t).value == depth + 1
        assert realize(t).m == depth + 1


def test_serialized_form_is_canonical_json():
    t = parse_decomposition(f'{{"type":"union","children":[{JOIN_K2_K2},{K2_LEAF}]}}')
    text = serialize_decomposition(t)
    doc = json.loads(text)
    assert doc["type"] == "union" and len(doc["children"]) == 2
    assert serialize_decomposition(parse_decomposition(text)) == text


def _preorder(t):
    """Node kinds and leaf trees in pre-order.  Every internal node has two
    children, so equal lists mean equal trees, hence equal realized edge
    orders."""
    out, stack = [], [t.root]
    while stack:
        node = stack.pop()
        if isinstance(node, (TreeLeaf, CotreeLeaf)):
            out.append((type(node).__name__, node.t.n, node.t.edges))
        else:
            out.append(type(node).__name__)
            stack += [node.right, node.left]
    return out


def _node_depth(obj):
    """Levels of nested nodes in a decomposition document."""
    depth, stack = 0, [(obj, 1)]
    while stack:
        o, d = stack.pop()
        depth = max(depth, d)
        stack.extend((child, d + 1) for child in o.get("children", ()))
    return depth


@given(decomposition_trees())
def test_parse_serialize_round_trip(t):
    text = serialize_decomposition(t)
    again = parse_decomposition(text)
    assert serialize_decomposition(again) == text
    assert (again.n, again.m) == (t.n, t.m)
    assert _preorder(again) == _preorder(t)


@given(decomposition_docs())
def test_serialize_nests_no_deeper_than_the_document(obj):
    t = parse_decomposition(json.dumps(obj))
    assert _node_depth(json.loads(serialize_decomposition(t))) <= _node_depth(obj)


def test_long_chains_round_trip():
    flat = '{"type":"union","children":[' + ",".join([K2_LEAF] * 4000) + "]}"
    t = parse_decomposition(flat)
    assert serialize_decomposition(t) == flat

    big = _bench_instance(10**5, 512, random.Random(0))
    again = parse_decomposition(serialize_decomposition(big))
    assert again.n == big.n == 10**5 and again.m == big.m
    assert _preorder(again) == _preorder(big)


@given(decomposition_trees())
def test_summaries_match_realized_graph(t):
    g = realize(t)
    assert (t.n, t.m) == (g.n, g.m)


@given(decomposition_trees())
def test_offsets_partition_left_before_right(t):
    g = realize(t)
    placed = list(t.placed())
    assert [node for node, _ in placed] == t.order
    offset = dict(placed)
    spans = []
    for node, off in placed:
        if isinstance(node, (TreeLeaf, CotreeLeaf)):
            assert node.n == node.t.n
            if isinstance(node, TreeLeaf):
                assert node.m == node.t.m
            else:
                assert node.m == complement(node.t).m
            spans.append((off, off + node.n))
            continue
        assert offset[node.left] == off
        assert offset[node.right] == off + node.left.n
        assert node.n == node.left.n + node.right.n
        expected_m = node.left.m + node.right.m
        if isinstance(node, JoinNode):
            expected_m += node.left.n * node.right.n
        assert node.m == expected_m
    covered = sorted(spans)
    assert covered[0][0] == 0 and covered[-1][1] == g.n
    assert all(a[1] == b[0] for a, b in zip(covered, covered[1:]))


def test_realize_keeps_subtree_edge_blocks_contiguous():
    t = parse_decomposition(f'{{"type":"join","children":[{UNION_K2_K2},{K2_LEAF}]}}')
    g = realize(t)
    # left union block (2 edges), right leaf block (1 edge), then cross edges
    assert g.edges[:2] == [(0, 1), (2, 3)]
    assert g.edges[2] == (4, 5)
    assert g.edges[3:] == [(u, v) for u in range(4) for v in (4, 5)]


def test_prufer_decode_covers_all_labeled_trees():
    seen = set()
    for a in range(4):
        for b in range(4):
            t = tree_from_prufer(4, [a, b])
            assert is_tree(t)
            seen.add(frozenset(t.edges))
    assert len(seen) == 16  # Cayley: 4^2 distinct labeled trees


@given(st.integers(3, 12), st.data())
def test_prufer_degree_property(n, data):
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    t = tree_from_prufer(n, seq)
    for v in range(n):
        assert t.degree(v) == seq.count(v) + 1


def test_random_generators_are_deterministic():
    rng = random.Random(42)
    t1 = random_labeled_tree(30, rng)
    t2 = random_labeled_tree(30, random.Random(42))
    assert is_tree(t1) and t1.edges == t2.edges

    a = random_tree_cograph(7, 3, 5)
    b = random_tree_cograph(7, 3, 5)
    assert serialize_decomposition(a) == serialize_decomposition(b)


def test_random_tree_cograph_depth_zero_is_a_leaf():
    t = random_tree_cograph(1, 0, 5)
    assert isinstance(t.root, (TreeLeaf, CotreeLeaf))


def test_cotree_leaf_realizes_the_complement():
    for seed in range(5):
        rng = random.Random(seed)
        base = random_labeled_tree(rng.randint(1, 8), rng)
        t = DecompositionTree(CotreeLeaf(base))
        assert set(realize(t).edges) == set(complement(base).edges)
