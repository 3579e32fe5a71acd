import dataclasses
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from strongedge import (
    CotreeLeaf,
    DecompositionError,
    DecompositionTree,
    GraphError,
    JoinNode,
    TreeLeaf,
    UnionNode,
    build_graph,
    complement,
    im,
    is_induced_matching,
    is_induced_matching_in,
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


def test_random_tree_cograph_stops_at_the_node_cap(monkeypatch):
    from strongedge import decomposition

    nodes = len(random_tree_cograph(5, 6, 4).order)
    assert nodes > 1
    monkeypatch.setattr(decomposition, "_GEN_NODE_CAP", nodes)
    assert len(random_tree_cograph(5, 6, 4).order) == nodes
    monkeypatch.setattr(decomposition, "_GEN_NODE_CAP", nodes - 1)
    with pytest.raises(ValueError, match=f"passes {nodes - 1} nodes"):
        random_tree_cograph(5, 6, 4)


def test_parse_peaks_near_the_tree_it_returns():
    """Each JSON node is freed once it is converted, so the document and
    the tree are never both whole in memory."""
    rng = random.Random(11)
    leaves = []
    for _ in range(4000):
        t = random_labeled_tree(rng.randint(1, 8), rng)
        leaves.append({"type": "tree", "n": t.n, "edges": [list(e) for e in t.edges]})
    text = json.dumps({"type": "union", "children": leaves})
    del leaves
    tracemalloc.start()
    try:
        tree = parse_decomposition(text)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.order) == 7999
    assert peak <= 1.3 * size


# --- the leaf reader against the route it replaced ---------------------------


def _reference_leaf(obj, path="$"):
    """Leaves as they were read before: every pair type-checked, then
    `build_graph`, which rejects bad and repeated pairs, then the leaf's
    own tree check."""

    def plain_int(x):
        return isinstance(x, int) and not isinstance(x, bool)

    extra = set(obj) - {"type", "n", "edges"}
    if extra:
        raise DecompositionError(f"{path}: unexpected keys {sorted(extra)}")
    n = obj.get("n")
    if not plain_int(n) or n < 1:
        raise DecompositionError(f"{path}: 'n' must be a positive integer")
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise DecompositionError(f"{path}: 'edges' must be a list of pairs")
    pairs = []
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(map(plain_int, e))):
            raise DecompositionError(f"{path}.edges[{i}]: expected a pair of integers")
        pairs.append((e[0], e[1]))
    if len(pairs) != n - 1:
        raise DecompositionError(f"{path}: leaf graph is not a tree")
    try:
        t = build_graph(n, pairs)
        return TreeLeaf(t) if obj["type"] == "tree" else CotreeLeaf(t)
    except (GraphError, DecompositionError) as exc:
        raise DecompositionError(f"{path}: {exc}") from None


_ODD_VALUES = [True, False, None, 1.0, 2.5, "1", "x", [], {}, [0, 1]]


def _malformed_leaf(rng):
    """A leaf document with up to three random faults."""
    n = rng.randint(1, 7)
    t = random_labeled_tree(n, rng)
    edges = [[u, v] if rng.random() < 0.5 else [v, u] for u, v in t.edges]
    obj = {"type": rng.choice(["tree", "cotree"]), "n": n, "edges": edges}
    for _ in range(rng.randint(0, 3)):
        fault = rng.randrange(9)
        if fault == 0:
            obj["n"] = rng.choice(_ODD_VALUES + [0, -1, n - 1, n + 1, 10**6])
        elif fault == 1 and edges:
            e = rng.choice(edges)
            if isinstance(e, list) and e:
                e[rng.randrange(len(e))] = rng.choice(
                    _ODD_VALUES + [-1, n, n + 3, e[0], e[-1]]
                )
        elif fault == 2 and edges:
            i = rng.randrange(len(edges))
            edges[i] = rng.choice([[0], [0, 1, 2], [], "01", None, 3, {"u": 0}])
        elif fault == 3 and edges:
            e = rng.choice(edges)
            copy = list(reversed(e)) if isinstance(e, list) and rng.random() < 0.5 else e
            edges.insert(rng.randrange(len(edges) + 1), copy)
        elif fault == 4 and edges:
            edges.pop(rng.randrange(len(edges)))
        elif fault == 5 and edges:
            edges[rng.randrange(len(edges))] = [rng.randrange(n), rng.randrange(n)]
        elif fault == 6:
            edges.append([rng.randrange(-1, n + 1), rng.randrange(-1, n + 1)])
        elif fault == 7:
            obj[rng.choice(["extra", "children", "m"])] = 1
        else:
            key = rng.choice(["n", "edges"])
            if rng.random() < 0.5:
                obj.pop(key, None)
            else:
                obj[key] = rng.choice(_ODD_VALUES)
    return obj


def _outcome(read, obj):
    try:
        leaf = read(obj)
    except DecompositionError as exc:
        return "rejected", str(exc)
    return type(leaf).__name__, leaf.t.n, leaf.t.edges


def test_leaf_reader_matches_the_build_graph_route():
    rng = random.Random(2024)
    seen = set()
    for _ in range(20_000):
        text = json.dumps(_malformed_leaf(rng))
        got = _outcome(lambda o: parse_decomposition(text).root, None)
        want = _outcome(_reference_leaf, json.loads(text))
        assert got == want, text
        seen.add(got[1] if got[0] == "rejected" else got[0])
    # both leaf kinds were accepted and every rejection was reached
    for outcome in ("TreeLeaf", "CotreeLeaf", "duplicate edge", "self-loop", "outside 0..",
                    "not a tree", "pair of integers", "positive integer",
                    "'edges' must be a list", "unexpected keys"):
        assert any(outcome in text for text in seen), outcome


# --- the induced-matching check on the decomposition -------------------------


def _agree(t, g, pairs):
    assert is_induced_matching_in(t, pairs) == is_induced_matching(g, pairs), pairs


def test_induced_matching_in_examples():
    p3 = '{"type":"tree","n":3,"edges":[[0,1],[1,2]]}'
    union = parse_decomposition(f'{{"type":"union","children":[{p3},{K2_LEAF}]}}')
    join = parse_decomposition(f'{{"type":"join","children":[{p3},{K2_LEAF}]}}')
    # the complement of a star: a triangle on 1, 2, 3 and the isolated 0
    costar = parse_decomposition('{"type":"cotree","n":4,"edges":[[0,1],[0,2],[0,3]]}')
    cases = [
        (union, [(0, 1), (3, 4)], True),
        (union, [(4, 3), (2, 1)], True),
        (union, [(0, 3)], False),  # across the union
        (union, [(0, 1), (1, 2)], False),  # shared endpoint
        (union, [(3, 3)], False),
        (union, [(4, 5)], False),
        (union, [(-1, 0)], False),
        (join, [(0, 3)], True),
        (join, [(2, 4)], True),
        (join, [(0, 3), (2, 4)], False),  # joined through 0 ~ 4
        (join, [(0, 1), (3, 4)], False),
        (costar, [(1, 3)], True),
        (costar, [(0, 1)], False),
        (costar, [(1, 2), (0, 3)], False),
        (costar, [], True),
    ]
    for t, pairs, expected in cases:
        assert is_induced_matching_in(t, pairs) is expected, pairs
        assert is_induced_matching(realize(t), pairs) is expected, pairs


def test_induced_matching_in_on_every_two_pair_set():
    """Every set of at most two vertex pairs of 40 small decompositions."""
    checked = 0
    seed = 0
    while checked < 40:
        t = random_tree_cograph(seed, 3, 4)
        seed += 1
        if not 4 <= t.n <= 9:
            continue
        checked += 1
        g = realize(t)
        pairs = [(u, v) for u in range(t.n) for v in range(u + 1, t.n)]
        _agree(t, g, list(im(t).witness))
        for a in pairs:
            _agree(t, g, [a])
            for b in pairs:
                _agree(t, g, [a, b])


@settings(max_examples=200)
@given(decomposition_trees(max_leaf_n=6), st.data())
def test_induced_matching_in_agrees_with_the_realized_graph(t, data):
    g = realize(t)
    vertex = st.integers(-1, t.n)

    def inside(lo, hi):
        return st.integers(lo, hi - 1)

    witness = list(im(t).witness)
    _agree(t, g, witness)
    if witness:
        # one witness edge replaced by an edge sharing one of its endpoints
        i = data.draw(st.integers(0, len(witness) - 1))
        w = data.draw(st.sampled_from(witness[i]))
        x = data.draw(st.sampled_from(g.adj[w]))
        _agree(t, g, witness[:i] + [(w, x)] + witness[i + 1 :])
    for node, off in t.placed():
        if isinstance(node, CotreeLeaf):
            # pairs within a cotree leaf
            pair = st.tuples(inside(off, off + node.n), inside(off, off + node.n))
            _agree(t, g, data.draw(st.lists(pair, min_size=1, max_size=3)))
        elif isinstance(node, (JoinNode, UnionNode)):
            mid = off + node.left.n
            end = off + node.n
            # a pair split by the node, with another pair on one side or across
            first = (data.draw(inside(off, mid)), data.draw(inside(mid, end)))
            second = (data.draw(inside(off, end)), data.draw(vertex))
            _agree(t, g, [first])
            _agree(t, g, [first, second])
            if g.edges:
                _agree(t, g, [first, data.draw(st.sampled_from(g.edges))])
    # arbitrary pairs: shared endpoints, self-pairs, out of range, repeats
    pair = st.tuples(vertex, vertex)
    if g.edges:
        pair = st.one_of(pair, st.sampled_from(g.edges))
    for _ in range(3):
        _agree(t, g, data.draw(st.lists(pair, max_size=5)))
