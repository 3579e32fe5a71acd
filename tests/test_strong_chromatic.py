import itertools
import random
import tracemalloc

import pytest
from hypothesis import given

from strongedge import (
    CotreeLeaf,
    DecompositionError,
    DecompositionTree,
    JoinNode,
    TreeLeaf,
    UnionNode,
    build_graph,
    complement,
    exact_chromatic_number,
    exact_max_clique,
    im,
    is_strong_edge_coloring,
    parse_decomposition,
    random_labeled_tree,
    realize,
    sci,
    square_of_linegraph,
    strong_coloring,
    tree_from_prufer,
)
from strongedge import oracle, strong_chromatic

from strategies import decomposition_trees, trees

P4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
STAR5 = build_graph(6, [(0, i) for i in range(1, 6)])
K2_LEAF = '{"type":"tree","n":2,"edges":[[0,1]]}'
JOIN_K2_K2 = f'{{"type":"join","children":[{K2_LEAF},{K2_LEAF}]}}'


def leaf(t):
    return DecompositionTree(TreeLeaf(t))


def test_sci_tree_examples():
    assert sci(leaf(P4)).value == 3
    assert sci(leaf(STAR5)).value == 5
    assert sci(leaf(build_graph(2, [(0, 1)]))).value == 1
    assert sci(leaf(build_graph(1, []))).value == 0


def test_sci_tree_rejects_non_trees():
    with pytest.raises(DecompositionError, match="not a tree"):
        TreeLeaf(build_graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_sci_cotree_examples():
    for t, value in [(build_graph(1, []), 0), (P4, 3), (STAR5, 10)]:
        assert sci(DecompositionTree(CotreeLeaf(t))).value == value


def test_sci_cotree_matches_oracle_on_a_six_vertex_tree():
    # the squared linegraph of any tree complement is a clique on its edges
    t = build_graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    co = complement(t)
    sq = square_of_linegraph(co)
    value = sci(DecompositionTree(CotreeLeaf(t))).value
    assert value == co.m == exact_chromatic_number(sq)


def test_sci_examples():
    assert sci(parse_decomposition(JOIN_K2_K2)).value == 6
    both = DecompositionTree(UnionNode(TreeLeaf(P4), TreeLeaf(STAR5)))
    assert sci(both).value == 5
    assert sci(parse_decomposition('{"type":"cotree","n":4,"edges":[[0,1],[1,2],[2,3]]}')).value == 3


def test_sci_per_node_bookkeeping():
    # per_node is by post-order position: left leaf, right leaf, join
    t = parse_decomposition(JOIN_K2_K2)
    res = sci(t)
    assert list(t.left_pos) == [-1, -1, 0]
    assert res.per_node == [1, 1, 6]
    assert res.per_node[-1] == res.value


def test_strong_coloring_examples():
    t = parse_decomposition(JOIN_K2_K2)
    c = strong_coloring(t)
    assert c.palette_size == 6 and len(set(c.colors)) == 6

    u = DecompositionTree(
        UnionNode(TreeLeaf(build_graph(2, [(0, 1)])), TreeLeaf(build_graph(2, [(0, 1)])))
    )
    cu = strong_coloring(u)
    assert tuple(cu.colors) == (0, 0) and cu.palette_size == 1

    p = DecompositionTree(TreeLeaf(P4))
    cp = strong_coloring(p)
    assert cp.palette_size == 3
    assert is_strong_edge_coloring(P4, cp)


@given(decomposition_trees())
def test_sci_matches_oracle_chromatic_number(t):
    sq = square_of_linegraph(realize(t))
    assert sci(t).value == exact_chromatic_number(sq)


@given(decomposition_trees())
def test_sci_matches_oracle_clique_number(t):
    # perfection of the squared linegraph at desk scale
    sq = square_of_linegraph(realize(t))
    assert sci(t).value == exact_max_clique(sq)


@given(decomposition_trees(max_leaf_n=8, max_internal=4))
def test_strong_coloring_is_valid_and_tight(t):
    c = strong_coloring(t)
    assert is_strong_edge_coloring(realize(t), c)
    assert c.palette_size == sci(t).value


@given(decomposition_trees(), decomposition_trees())
def test_join_is_strictly_supermodular(a, b):
    joined = DecompositionTree(JoinNode(a.root, b.root))
    va, vb = sci(a).value, sci(b).value
    assert sci(joined).value == a.n * b.n + va + vb > va + vb


@given(decomposition_trees(), decomposition_trees())
def test_union_takes_the_maximum(a, b):
    both = DecompositionTree(UnionNode(a.root, b.root))
    assert sci(both).value == max(sci(a).value, sci(b).value)


@given(trees(max_n=40))
def test_sci_tree_equals_clique_number_of_the_square(t):
    sq = square_of_linegraph(t)
    assert sci(leaf(t)).value == exact_max_clique(sq)


def _tree_colorings_are_strong_and_tight(trees_):
    for t in trees_:
        c = strong_coloring(leaf(t))
        assert is_strong_edge_coloring(t, c), t.edges
        assert c.palette_size == sci(leaf(t)).value, t.edges


def test_tree_leaf_coloring_on_every_labeled_tree_up_to_eight_vertices():
    _tree_colorings_are_strong_and_tight(
        tree_from_prufer(n, list(seq))
        for n in range(1, 9)
        for seq in itertools.product(range(n), repeat=max(0, n - 2))
    )


def test_tree_leaf_coloring_on_seeded_random_trees():
    rng = random.Random(8)
    _tree_colorings_are_strong_and_tight(
        random_labeled_tree(rng.randint(1, n_hi), rng)
        for n_hi in (10, 100, 1000)
        for _ in range(100)
    )


def _spider(legs, length):
    edges = []
    for leg in range(legs):
        prev = 0
        for step in range(length):
            v = 1 + leg * length + step
            edges.append((prev, v))
            prev = v
    return build_graph(1 + legs * length, edges)


@given(decomposition_trees(max_leaf_n=8, max_internal=4))
def test_strong_coloring_needs_no_squared_linegraph(t):
    # the oracle-side machinery is kept out of the certificate path
    def unreachable(*args):
        raise AssertionError("strong_coloring reached the chordal path")

    with pytest.MonkeyPatch.context() as mp:
        for module in (oracle, strong_chromatic):
            mp.setattr(module, "square_of_linegraph", unreachable)
            mp.setattr(module, "chordal_coloring", unreachable)
        mp.setattr(oracle, "lexbfs_order", unreachable)
        c = strong_coloring(t)
    assert is_strong_edge_coloring(realize(t), c)
    assert c.palette_size == sci(t).value


@pytest.mark.parametrize("t", [_spider(3000, 1), _spider(1500, 2)], ids=["star", "spider"])
def test_tree_leaf_coloring_peaks_near_the_leaf_size(t):
    # L(T)^2 of a 3,000-leaf star is a clique of 4.5 million edges, which
    # peaked near 1 GB; the rooted pass holds a few lists of n entries.
    tracemalloc.start()
    try:
        tree = leaf(build_graph(t.n, t.edges))
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        c = strong_coloring(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.palette_size == sci(tree).value
    assert peak <= 4 * size, (size, peak)


@given(decomposition_trees())
def test_color_classes_cover_edges(t):
    # iv * schi' >= m: the palette partitions edges into induced matchings
    assert im(t).value * sci(t).value >= t.m


def test_sci_value_zero_iff_edgeless():
    empty = parse_decomposition('{"type":"tree","n":1,"edges":[]}')
    assert sci(empty).value == 0
    assert sci(parse_decomposition(K2_LEAF)).value > 0
