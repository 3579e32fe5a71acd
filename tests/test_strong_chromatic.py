import pytest
from hypothesis import given

from strongedge import (
    CotreeLeaf,
    DecompositionTree,
    GraphError,
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
    realize,
    sci,
    sci_tree,
    square_of_linegraph,
    strong_coloring,
)

from strategies import decomposition_trees, trees

P4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
STAR5 = build_graph(6, [(0, i) for i in range(1, 6)])
K2_LEAF = '{"type":"tree","n":2,"edges":[[0,1]]}'
JOIN_K2_K2 = f'{{"type":"join","children":[{K2_LEAF},{K2_LEAF}]}}'


def test_sci_tree_examples():
    assert sci_tree(P4) == 3
    assert sci_tree(STAR5) == 5
    assert sci_tree(build_graph(2, [(0, 1)])) == 1
    assert sci_tree(build_graph(1, [])) == 0


def test_sci_tree_rejects_non_trees():
    with pytest.raises(GraphError, match="not a tree"):
        sci_tree(build_graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_sci_cotree_examples():
    for t, value in [(build_graph(1, []), 0), (P4, 3), (STAR5, 10)]:
        assert sci(DecompositionTree(CotreeLeaf(t))).value == value


def test_sci_cotree_matches_oracle_on_a_six_vertex_tree():
    # the squared linegraph of any tree complement is a clique on its edges
    t = build_graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    co = complement(t)
    sq = square_of_linegraph(co).graph
    value = sci(DecompositionTree(CotreeLeaf(t))).value
    assert value == co.m == exact_chromatic_number(sq)


def test_sci_examples():
    assert sci(parse_decomposition(JOIN_K2_K2)).value == 6
    both = DecompositionTree(UnionNode(TreeLeaf(P4), TreeLeaf(STAR5)))
    assert sci(both).value == 5
    assert sci(parse_decomposition('{"type":"cotree","n":4,"edges":[[0,1],[1,2],[2,3]]}')).value == 3


def test_sci_per_node_bookkeeping():
    t = parse_decomposition(JOIN_K2_K2)
    res = sci(t)
    assert res.per_node[t.root] == res.value
    assert res.per_node[t.root.left] == res.per_node[t.root.right] == 1


def test_strong_coloring_examples():
    t = parse_decomposition(JOIN_K2_K2)
    c = strong_coloring(t)
    assert c.palette_size == 6 and len(set(c.colors)) == 6

    u = DecompositionTree(
        UnionNode(TreeLeaf(build_graph(2, [(0, 1)])), TreeLeaf(build_graph(2, [(0, 1)])))
    )
    cu = strong_coloring(u)
    assert cu.colors == (0, 0) and cu.palette_size == 1

    p = DecompositionTree(TreeLeaf(P4))
    cp = strong_coloring(p)
    assert cp.palette_size == 3
    assert is_strong_edge_coloring(P4, cp)


@given(decomposition_trees())
def test_sci_matches_oracle_chromatic_number(t):
    sq = square_of_linegraph(realize(t)).graph
    assert sci(t).value == exact_chromatic_number(sq)


@given(decomposition_trees())
def test_sci_matches_oracle_clique_number(t):
    # perfection of the squared linegraph at desk scale
    sq = square_of_linegraph(realize(t)).graph
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
    sq = square_of_linegraph(t).graph
    assert sci_tree(t) == exact_max_clique(sq)


@given(decomposition_trees())
def test_color_classes_cover_edges(t):
    # iv * schi' >= m: the palette partitions edges into induced matchings
    assert im(t).value * sci(t).value >= t.m


def test_sci_value_zero_iff_edgeless():
    empty = parse_decomposition('{"type":"tree","n":1,"edges":[]}')
    assert sci(empty).value == 0
    assert sci(parse_decomposition(K2_LEAF)).value > 0
