import itertools

import pytest
from hypothesis import given

from strongedge import build_graph
from strongedge.oracle import (
    PerfectEliminationError,
    chordal_coloring,
    exact_max_clique,
    has_induced_cycle_at_least,
    is_chordal,
    is_perfect_elimination_ordering,
    lexbfs_order,
    square_of_linegraph,
)

from strategies import graphs, trees


def _cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


# (graph, Lex-BFS order, chordal coloring or None when not chordal), as the
# partition-refinement Lex-BFS gave them; the rewrite must reproduce them.
FROZEN = {
    "empty": (build_graph(0, []), [], []),
    "k1": (build_graph(1, []), [0], [0]),
    "p4": (_path(4), [0, 1, 2, 3], [0, 1, 0, 1]),
    "c4": (_cycle(4), [0, 1, 3, 2], None),
    "c5": (_cycle(5), [0, 1, 4, 2, 3], None),
    "k4": (
        build_graph(4, list(itertools.combinations(range(4), 2))),
        [0, 1, 2, 3],
        [0, 1, 2, 3],
    ),
    "star": (build_graph(5, [(0, i) for i in range(1, 5)]), [0, 1, 2, 3, 4], [0, 1, 1, 1, 1]),
    "gem": (
        build_graph(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)]),
        [0, 1, 4, 2, 3],
        [0, 1, 0, 1, 2],
    ),
    "diamond-tail": (
        build_graph(6, [(3, 5), (0, 2), (2, 3), (0, 3), (1, 4), (4, 5)]),
        [0, 2, 3, 5, 4, 1],
        [0, 0, 1, 2, 1, 0],
    ),
    "two-parts": (
        build_graph(7, [(5, 6), (0, 4), (4, 6), (1, 3), (2, 3), (1, 2)]),
        [0, 4, 6, 5, 1, 2, 3],
        [0, 0, 1, 2, 1, 1, 0],
    ),
    "square-p6": (square_of_linegraph(_path(6)), [0, 1, 2, 3, 4], [0, 1, 2, 0, 1]),
    "square-spider": (
        square_of_linegraph(build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])),
        [0, 1, 2, 4, 3, 5],
        [0, 1, 2, 1, 3, 1],
    ),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_lexbfs_orders_and_colorings(name):
    g, order, colors = FROZEN[name]
    assert lexbfs_order(g) == order
    if colors is None:
        with pytest.raises(PerfectEliminationError):
            chordal_coloring(g)
    else:
        assert chordal_coloring(g) == colors


@given(graphs(max_n=6))
def test_reversed_lexbfs_is_a_peo_exactly_when_one_exists(g):
    found = is_perfect_elimination_ordering(g, lexbfs_order(g)[::-1])
    assert is_chordal(g) == found
    assert found == any(
        is_perfect_elimination_ordering(g, list(p))
        for p in itertools.permutations(range(g.n))
    )


def test_lexbfs_is_a_permutation():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    assert sorted(lexbfs_order(g)) == list(range(5))
    assert lexbfs_order(build_graph(0, [])) == []


@given(graphs())
def test_lexbfs_is_a_permutation_always(g):
    assert sorted(lexbfs_order(g)) == list(range(g.n))


def test_peo_checker():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert is_perfect_elimination_ordering(p3, [0, 2, 1])
    c4 = _cycle(4)
    # C4 has no PEO at all
    assert not any(
        is_perfect_elimination_ordering(c4, [a, b, c, d])
        for a in range(4)
        for b in range(4)
        for c in range(4)
        for d in range(4)
        if len({a, b, c, d}) == 4
    )
    assert not is_perfect_elimination_ordering(p3, [0, 0, 1])


def test_is_chordal_basics():
    assert is_chordal(build_graph(0, []))
    assert is_chordal(_cycle(3))
    assert not is_chordal(_cycle(4))
    assert not is_chordal(_cycle(5))
    assert is_chordal(build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))


@given(trees(max_n=12))
def test_trees_are_chordal(t):
    assert is_chordal(t)


@given(graphs(max_n=7))
def test_is_chordal_matches_induced_cycle_search(g):
    # dual route: chordal iff no chordless cycle of length four or more
    assert is_chordal(g) == (not has_induced_cycle_at_least(g, 4))


def test_chordal_coloring_rejects_non_chordal():
    with pytest.raises(PerfectEliminationError):
        chordal_coloring(_cycle(4))


@given(graphs(max_n=8))
def test_chordal_coloring_is_proper_and_optimal(g):
    if not is_chordal(g):
        return
    colors = chordal_coloring(g)
    assert all(colors[u] != colors[v] for u, v in g.edges)
    palette = len(set(colors)) if colors else 0
    assert palette == exact_max_clique(g)


@given(trees(max_n=10))
def test_squared_linegraphs_of_trees_are_chordal(t):
    assert is_chordal(square_of_linegraph(t))
