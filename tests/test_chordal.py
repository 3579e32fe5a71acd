import itertools

import pytest
from hypothesis import given

from strongedge import build_graph
from strongedge.oracle import (
    PerfectEliminationError,
    adjacency_rows,
    chordal_coloring,
    exact_max_clique,
    has_induced_cycle_at_least,
    is_chordal,
    is_perfect_elimination_ordering,
    lexbfs_order,
    square_of_linegraph,
)

from strategies import graphs, trees


def _rows(n, edges):
    return adjacency_rows(build_graph(n, edges))


def _cycle(n):
    return _rows(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


# (graph rows, Lex-BFS order, chordal coloring or None when not chordal),
# as the partition-refinement Lex-BFS gave them; the rewrite must
# reproduce them.
FROZEN = {
    "empty": ([], [], []),
    "k1": ([0], [0], [0]),
    "p4": (adjacency_rows(_path(4)), [0, 1, 2, 3], [0, 1, 0, 1]),
    "c4": (_cycle(4), [0, 1, 3, 2], None),
    "c5": (_cycle(5), [0, 1, 4, 2, 3], None),
    "k4": (
        _rows(4, list(itertools.combinations(range(4), 2))),
        [0, 1, 2, 3],
        [0, 1, 2, 3],
    ),
    "star": (_rows(5, [(0, i) for i in range(1, 5)]), [0, 1, 2, 3, 4], [0, 1, 1, 1, 1]),
    "gem": (
        _rows(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)]),
        [0, 1, 4, 2, 3],
        [0, 1, 0, 1, 2],
    ),
    "diamond-tail": (
        _rows(6, [(3, 5), (0, 2), (2, 3), (0, 3), (1, 4), (4, 5)]),
        [0, 2, 3, 5, 4, 1],
        [0, 0, 1, 2, 1, 0],
    ),
    "two-parts": (
        _rows(7, [(5, 6), (0, 4), (4, 6), (1, 3), (2, 3), (1, 2)]),
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
    rows, order, colors = FROZEN[name]
    assert lexbfs_order(rows) == order
    if colors is None:
        with pytest.raises(PerfectEliminationError):
            chordal_coloring(rows)
    else:
        assert chordal_coloring(rows) == colors


@given(graphs(max_n=6))
def test_reversed_lexbfs_is_a_peo_exactly_when_one_exists(g):
    rows = adjacency_rows(g)
    found = is_perfect_elimination_ordering(rows, lexbfs_order(rows)[::-1])
    assert is_chordal(rows) == found
    assert found == any(
        is_perfect_elimination_ordering(rows, list(p))
        for p in itertools.permutations(range(g.n))
    )


def test_lexbfs_is_a_permutation():
    rows = _rows(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    assert sorted(lexbfs_order(rows)) == list(range(5))
    assert lexbfs_order([]) == []


@given(graphs())
def test_lexbfs_is_a_permutation_always(g):
    assert sorted(lexbfs_order(adjacency_rows(g))) == list(range(g.n))


def test_peo_checker():
    p3 = _rows(3, [(0, 1), (1, 2)])
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
    assert is_chordal([])
    assert is_chordal(_cycle(3))
    assert not is_chordal(_cycle(4))
    assert not is_chordal(_cycle(5))
    assert is_chordal(_rows(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))


@given(trees(max_n=12))
def test_trees_are_chordal(t):
    assert is_chordal(adjacency_rows(t))


@given(graphs(max_n=7))
def test_is_chordal_matches_induced_cycle_search(g):
    # dual route: chordal iff no chordless cycle of length four or more
    rows = adjacency_rows(g)
    assert is_chordal(rows) == (not has_induced_cycle_at_least(rows, 4))


def test_chordal_coloring_rejects_non_chordal():
    with pytest.raises(PerfectEliminationError):
        chordal_coloring(_cycle(4))


@given(graphs(max_n=8))
def test_chordal_coloring_is_proper_and_optimal(g):
    rows = adjacency_rows(g)
    if not is_chordal(rows):
        return
    colors = chordal_coloring(rows)
    assert all(colors[u] != colors[v] for u, v in g.edges)
    palette = len(set(colors)) if colors else 0
    assert palette == exact_max_clique(rows)


@given(trees(max_n=10))
def test_squared_linegraphs_of_trees_are_chordal(t):
    assert is_chordal(square_of_linegraph(t))
