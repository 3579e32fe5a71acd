import random
import tracemalloc
from array import array
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
import hypothesis.strategies as st

from strongedge import (
    CotreeLeaf,
    DecompositionTree,
    Graph,
    GraphError,
    JoinNode,
    PermutationDiagram,
    StrongEdgeColoring,
    TreeLeaf,
    build_graph,
    complement,
    is_induced_matching,
    is_strong_edge_coloring,
    is_tree,
    permutation_graph,
    random_labeled_tree,
    realize,
    square_of_linegraph,
)
from strongedge.graph import adjacency, bfs_tree, nonedges

from strategies import graphs, trees

P4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])


def test_build_graph_examples():
    assert P4.m == 3
    assert build_graph(1, []).m == 0
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert sorted(u for e in k3.edges for u in e) == [0, 0, 1, 1, 2, 2]


def test_build_graph_normalizes_and_indexes_in_input_order():
    g = build_graph(3, [(2, 1), (0, 2)])
    assert g.edges == [(1, 2), (0, 2)]


def test_build_graph_rejections():
    with pytest.raises(GraphError, match="self-loop"):
        build_graph(2, [(1, 1)])
    with pytest.raises(GraphError, match="outside"):
        build_graph(2, [(0, 2)])
    with pytest.raises(GraphError, match="duplicate"):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="non-negative"):
        build_graph(-1, [])


def test_graphs_built_in_the_package_peak_near_their_own_size():
    # Graph trusts the edges these builders make, so building one
    # allocates little beyond the Graph itself: no set of the edges and
    # no second copy of them.
    rng = random.Random(0)
    join = DecompositionTree(JoinNode(
        TreeLeaf(random_labeled_tree(300, rng)),
        CotreeLeaf(random_labeled_tree(300, rng)),
    ))
    pi = list(range(600))
    rng.shuffle(pi)
    diagram = PermutationDiagram(600, tuple(pi))
    for build in (lambda: realize(join), lambda: permutation_graph(diagram)):
        tracemalloc.start()
        try:
            g = build()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m > 80_000
        assert peak <= 1.25 * retained, (g, retained, peak)


def test_square_of_linegraph_examples():
    # rows over the edge indices: bit f of row e set iff e ~ f
    assert square_of_linegraph(P4) == [0b110, 0b101, 0b011]
    two_edges = build_graph(4, [(0, 1), (2, 3)])
    assert square_of_linegraph(two_edges) == [0, 0]
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert square_of_linegraph(star) == [0b110, 0b101, 0b011]


def test_is_strong_edge_coloring_examples():
    assert is_strong_edge_coloring(P4, StrongEdgeColoring((0, 1, 2)))
    # edges 0 and 2 are joined by edge 1, so they may not share a color
    assert not is_strong_edge_coloring(P4, StrongEdgeColoring.from_colors([0, 1, 0]))
    assert is_strong_edge_coloring(build_graph(0, []), StrongEdgeColoring(()))


def test_is_strong_edge_coloring_memory_is_linear():
    # A perfect matching with 20,000 distinct colors: a vertex-by-color
    # table of 4-byte counts would take 40,000 * 20,000 * 4 B = 3.2 GB.
    m = 20_000
    g = build_graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
    coloring = StrongEdgeColoring(tuple(range(m)))
    tracemalloc.start()
    try:
        ok = is_strong_edge_coloring(g, coloring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 64 << 20


def test_interned_colors_share_one_int_per_color():
    # each read of an array('i') past 255 makes a new int; a checker that
    # keeps colors per vertex would hold one per read
    coloring = StrongEdgeColoring(array("i", list(range(1000)) * 2))
    assert coloring.colors[999] is not coloring.colors[1999]
    shared = list(coloring.interned())
    assert shared == list(coloring.colors) and shared[999] is shared[1999]


def test_is_strong_edge_coloring_rejects_length_mismatch():
    with pytest.raises(GraphError, match="entries"):
        is_strong_edge_coloring(P4, StrongEdgeColoring((0, 1)))


def test_complement_examples():
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert complement(k3).m == 0
    # the complement of the path 0-1-2-3 is the path 2-0-3-1
    assert set(complement(P4).edges) == {(0, 2), (0, 3), (1, 3)}
    assert complement(build_graph(1, [])).n == 1


def test_bfs_tree_order_and_parents():
    # 0-1, 0-2, 1-3, 2-4 plus an isolated vertex 5
    g = build_graph(6, [(0, 2), (0, 1), (1, 3), (2, 4)])
    assert bfs_tree(adjacency(g)) == ([0, 2, 1, 4, 3], [-1, 0, 0, 1, 2, -1])
    # a cycle is walked once
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert bfs_tree(adjacency(k3)) == ([0, 1, 2], [-1, 0, 0])


def test_is_tree():
    assert is_tree(P4)
    assert is_tree(build_graph(1, []))
    assert not is_tree(build_graph(0, []))
    assert not is_tree(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_tree(build_graph(4, [(0, 1), (2, 3)]))  # forest, not a tree
    # right edge count but disconnected (cycle plus isolated vertex)
    assert not is_tree(build_graph(4, [(0, 1), (1, 2), (0, 2)]))


def _connected(n, pairs):
    """Whether the pairs connect all n vertices, by a search from vertex 0."""
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def test_is_tree_on_every_multiset_of_n_minus_1_pairs():
    """n - 1 pairs that hold a loop or a repeat connect at most n - 1 of
    the n vertices, so with that many pairs "connected" means "a tree",
    loops and repeats included."""
    for n in range(1, 7):
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        trees = 0
        for chosen in combinations_with_replacement(pairs, n - 1):
            verdict = is_tree(Graph(n, list(chosen)))
            assert verdict == _connected(n, chosen), (n, chosen)
            trees += verdict
        assert trees == n ** max(n - 2, 0)  # Cayley's formula


def test_graph_keeps_no_adjacency():
    assert Graph.__slots__ == ("n", "edges")
    g = build_graph(3, [(0, 1), (1, 2)])
    assert adjacency(g) == [[1], [0, 2], [1]] and adjacency(g) is not adjacency(g)


def test_coloring_canonical_form():
    with pytest.raises(GraphError, match="gaps"):
        StrongEdgeColoring((0, 2))
    with pytest.raises(GraphError, match="palette_size"):
        StrongEdgeColoring((0, 1), palette_size=3)
    c = StrongEdgeColoring.from_colors([7, 3, 7, 0])
    assert tuple(c.colors) == (0, 1, 0, 2) and c.palette_size == 3


def _int_array(colors) -> array:
    """The colors as the package stores them, an array('i'); 10**12 does
    not fit in 32 bits, so colors with it go in an array('q')."""
    return array("i" if all(abs(c) < 2**31 for c in colors) else "q", colors)


@pytest.mark.parametrize(
    "colors, palette_size, message",
    [
        ((0, 2), -1, "colors must be exactly 0..k-1 with no gaps"),
        ((0, 2), 2, "colors must be exactly 0..k-1 with no gaps"),
        ((1, 1), -1, "colors must be exactly 0..k-1 with no gaps"),
        ((0, 1), 3, "palette_size 3 != 2 distinct colors"),
        ((0, 0, 1), 1, "palette_size 1 != 2 distinct colors"),
        ((-1, 0), -1, "colors must be exactly 0..k-1 with no gaps"),
        ((-1, 0), 2, "colors must be exactly 0..k-1 with no gaps"),
        ((-1, 0, 0), 3, "palette_size 3 != 2 distinct colors"),
        ((0, 10**12), 3, "palette_size 3 != 2 distinct colors"),
        ((), 1, "palette_size 1 != 0 distinct colors"),
    ],
)
def test_coloring_check_rejects_with_its_message(colors, palette_size, message):
    for kind in (tuple, _int_array):
        with pytest.raises(GraphError) as info:
            StrongEdgeColoring(kind(colors), palette_size)
        assert str(info.value) == message


def test_coloring_check_accepts_and_defaults_the_palette():
    for kind in (tuple, _int_array):
        assert StrongEdgeColoring(kind(())).palette_size == 0
        empty = kind(())
        assert StrongEdgeColoring(empty, 0).colors is empty
        assert StrongEdgeColoring(kind((1, 0, 1, 2))).palette_size == 3
        assert StrongEdgeColoring(kind((0, 0, 0)), 1).palette_size == 1
        assert StrongEdgeColoring(kind(tuple(range(500))[::-1])).palette_size == 500


def test_induced_matching_checker():
    p6 = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    assert is_induced_matching(p6, [(0, 1), (3, 4)])
    assert not is_induced_matching(p6, [(0, 1), (2, 3)])  # joined by edge 1-2
    assert not is_induced_matching(p6, [(0, 1), (1, 2)])  # share vertex 1
    assert not is_induced_matching(p6, [(0, 2)])  # not an edge
    assert is_induced_matching(p6, [])
    assert is_induced_matching(p6, [(1, 0), (4, 3)])  # endpoint order is free
    assert not is_induced_matching(p6, [(5, 6)])  # out of range
    assert not is_induced_matching(p6, [(-1, 0)])
    assert not is_induced_matching(p6, [(2, 2)])  # self-paired
    assert not is_induced_matching(p6, [(0, 1), (0, 1)])  # repeated
    assert not is_induced_matching(p6, [(0, 1), (1, 0)])
    assert not is_induced_matching(p6, [(0, 1), (3, 5)])  # second is a non-edge


def _linegraph_distance2_pairs(g):
    """Independent reference for L(g)^2: BFS in the linegraph, two levels.
    Lists each pair (s, v), s < v, in lexicographic order."""
    incident = [[] for _ in range(g.n)]
    for idx, (u, v) in enumerate(g.edges):
        incident[u].append(idx)
        incident[v].append(idx)
    lg_adj = [set() for _ in range(g.m)]
    for idx, (u, v) in enumerate(g.edges):
        for w in (u, v):
            for other in incident[w]:
                if other != idx:
                    lg_adj[idx].add(other)
    pairs = []
    for s in range(g.m):
        reach = set(lg_adj[s])  # the first level, then the second
        for x in lg_adj[s]:
            reach |= lg_adj[x]
        pairs.extend((s, v) for v in sorted(reach) if v > s)
    return pairs


def _rows_of_pairs(n, pairs):
    rows = [0] * n
    for e, f in pairs:
        rows[e] |= 1 << f
        rows[f] |= 1 << e
    return rows


@given(graphs())
def test_square_matches_bfs_reference(g):
    assert square_of_linegraph(g) == _rows_of_pairs(g.m, _linegraph_distance2_pairs(g))


@given(graphs())
def test_square_rows_are_symmetric_without_diagonal_and_match_bfs_reference(g):
    rows = square_of_linegraph(g)
    assert len(rows) == g.m
    for e, row in enumerate(rows):
        assert not row >> e & 1 and row >> g.m == 0
        assert all(rows[f] >> e & 1 for f in range(g.m) if row >> f & 1)
    pairs = [
        (e, f) for e, row in enumerate(rows) for f in range(e + 1, g.m) if row >> f & 1
    ]
    assert pairs == _linegraph_distance2_pairs(g)


def test_square_edges_are_complete_and_in_lexicographic_order():
    rng = random.Random(11)
    cases = [random_labeled_tree(rng.randint(1, 120), rng) for _ in range(60)]
    for _ in range(60):
        pi = list(range(rng.randint(1, 60)))
        rng.shuffle(pi)
        cases.append(permutation_graph(PermutationDiagram(len(pi), tuple(pi))))
    for g in cases:
        assert square_of_linegraph(g) == _rows_of_pairs(g.m, _linegraph_distance2_pairs(g)), g


@given(graphs(), st.data())
def test_graph_adjacency_is_what_build_graph_makes(g, data):
    # build_graph normalizes each pair to u < v; Graph takes the
    # normalized list as it is, adjacency order included
    flipped = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in g.edges]
    built = build_graph(g.n, flipped)
    trusted = Graph(g.n, list(g.edges))
    assert trusted.edges == built.edges and adjacency(trusted) == adjacency(built)


@given(graphs())
def test_nonedges_are_the_missing_pairs_in_lexicographic_order(g):
    present = set(g.edges)
    expected = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in present
    ]
    assert list(nonedges(g)) == expected


@given(graphs())
def test_complement_is_an_involution(g):
    cc = complement(complement(g))
    assert cc.n == g.n and set(cc.edges) == set(g.edges)


def _properly_colors_the_square(g, colors):
    rows = square_of_linegraph(g)
    return all(
        colors[e] != colors[f] for e in range(g.m) for f in range(e) if rows[e] >> f & 1
    )


@given(graphs(), st.data())
def test_coloring_checker_matches_both_formulations(g, data):
    if g.m == 0:
        colors = []
    else:
        colors = data.draw(
            st.lists(st.integers(0, g.m - 1), min_size=g.m, max_size=g.m)
        )
    c = StrongEdgeColoring.from_colors(colors)
    fast = is_strong_edge_coloring(g, c)

    # formulation 1: proper vertex coloring of the squared linegraph
    proper = _properly_colors_the_square(g, c.colors)
    # formulation 2: every color class is an induced matching
    classes = {}
    for idx, col in enumerate(c.colors):
        classes.setdefault(col, []).append(g.edges[idx])
    by_class = all(is_induced_matching(g, cls) for cls in classes.values())

    assert fast == proper == by_class


@given(graphs(), st.randoms(use_true_random=False))
def test_coloring_checker_on_linegraph_proper_colorings(g, rng):
    # Edges sharing a vertex get distinct colors, so only the check on
    # edges joined by a third edge can reject these colorings.
    at = [set() for _ in range(g.n)]
    colors = []
    for u, v in g.edges:
        free = [c for c in range(3) if c not in at[u] | at[v]]
        c = rng.choice(free) if free else 3 + len(colors)
        at[u].add(c)
        at[v].add(c)
        colors.append(c)
    coloring = StrongEdgeColoring.from_colors(colors)
    proper = _properly_colors_the_square(g, coloring.colors)
    assert is_strong_edge_coloring(g, coloring) == proper


@given(trees(max_n=12))
def test_trees_pass_is_tree(t):
    assert is_tree(t)
    assert t.m == t.n - 1
