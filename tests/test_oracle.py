import itertools

import pytest
from hypothesis import given

from strongedge import (
    BudgetExceededError,
    OracleReport,
    build_graph,
    exact_chromatic_number,
    exact_max_clique,
    exact_max_independent_set,
    has_induced_cycle_at_least,
    is_chordal,
    is_clique,
    is_ptolemaic,
    square_of_linegraph,
)
from strongedge.oracle import (
    chromatic_number_exhaustive,
    max_clique_exhaustive,
    max_independent_set_exhaustive,
    timed,
)

from strategies import graphs, tree_diameter, trees


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n):
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def test_exact_chromatic_number_examples():
    assert exact_chromatic_number(clique(6)) == 6
    assert exact_chromatic_number(cycle(5)) == 3
    assert exact_chromatic_number(square_of_linegraph(path(4))) == 3
    assert exact_chromatic_number(build_graph(0, [])) == 0
    assert exact_chromatic_number(build_graph(5, [])) == 1


def test_exact_max_independent_set_examples():
    assert exact_max_independent_set(build_graph(5, [])) == 5
    assert exact_max_independent_set(clique(5)) == 1
    assert exact_max_independent_set(square_of_linegraph(path(5))) == 2


def test_exact_max_clique_examples():
    assert exact_max_clique(clique(4)) == 4
    assert exact_max_clique(cycle(5)) == 2
    assert exact_max_clique(square_of_linegraph(clique(4))) == 6
    assert exact_max_clique(build_graph(0, [])) == 0


def test_induced_cycle_detection_examples():
    assert has_induced_cycle_at_least(cycle(5), 5)
    assert has_induced_cycle_at_least(cycle(6), 5)
    assert not has_induced_cycle_at_least(clique(4), 4)
    assert not has_induced_cycle_at_least(cycle(6), 7)
    # C4 plus a chord leaves only triangles
    assert not has_induced_cycle_at_least(
        build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), 4
    )
    with pytest.raises(ValueError):
        has_induced_cycle_at_least(cycle(5), 2)


def test_induced_cycle_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        has_induced_cycle_at_least(cycle(12), 12, budget=3)


def test_clique_budget_is_enforced():
    with pytest.raises(BudgetExceededError, match="budget of 1 exhausted"):
        exact_max_clique(clique(12), budget=1)


def test_searches_deeper_than_the_stack_are_inconclusive(shallow_stack):
    # both searches take one frame per vertex: the clique search down a
    # 120-clique, the 2-coloring attempt around an odd cycle
    with shallow_stack():
        with pytest.raises(BudgetExceededError, match="recursion limit"):
            exact_max_clique(clique(120))
        with pytest.raises(BudgetExceededError, match="recursion limit"):
            exact_chromatic_number(cycle(121))
    assert exact_max_clique(clique(120)) == 120
    assert exact_chromatic_number(cycle(121)) == 3


def test_is_clique():
    assert is_clique(build_graph(1, []))
    assert is_clique(build_graph(0, []))
    assert is_clique(clique(4))
    assert not is_clique(build_graph(4, [(0, 1), (2, 3)]))


GEM = build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)])


def test_ptolemaic_examples():
    assert is_ptolemaic(path(6))
    assert is_ptolemaic(clique(5))
    assert is_ptolemaic(build_graph(0, []))
    assert not is_ptolemaic(cycle(4))  # not even chordal
    assert is_chordal(GEM)
    assert not is_ptolemaic(GEM)


def test_squared_linegraph_of_path6_contains_a_gem():
    # Edges e0..e4 of the 6-vertex path: e2 sees all of the induced path
    # e0-e1-e3-e4 in the square of the linegraph, so the square is chordal
    # but not ptolemaic.  Shorter paths are still ptolemaic.
    sq = square_of_linegraph(path(6))
    assert is_chordal(sq)
    assert not is_ptolemaic(sq)
    assert is_ptolemaic(square_of_linegraph(path(5)))


SPIDER = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def test_squared_linegraph_of_small_spider_is_ptolemaic():
    assert is_ptolemaic(square_of_linegraph(SPIDER))


def test_tree_diameter_examples():
    assert tree_diameter(build_graph(1, [])) == 0
    assert all(tree_diameter(path(n)) == n - 1 for n in range(1, 9))
    assert tree_diameter(build_graph(6, [(0, v) for v in range(1, 6)])) == 2
    assert tree_diameter(SPIDER) == 4


@given(trees(max_n=10))
def test_squared_linegraph_is_ptolemaic_iff_diameter_at_most_4(t):
    # A path on 6 vertices makes a gem (see the P6 test above); a tree of
    # diameter <= 4 has a square that is a clique joined to a union of
    # cliques.  Acceptance criterion 6 checks the same on a seeded corpus.
    assert is_ptolemaic(square_of_linegraph(t)) == (tree_diameter(t) <= 4)


@given(trees(max_n=9))
def test_trees_are_ptolemaic(t):
    assert is_ptolemaic(t)


def _maximal_cliques(g):
    # Bron-Kerbosch; fine at test sizes.
    adj = [set(nbrs) for nbrs in g.adj]
    out = []

    def bk(r, p, x):
        if not p and not x:
            out.append(r)
            return
        for v in sorted(p):
            bk(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bk(set(), set(range(g.n)), set())
    return out


def _separates(g, removed, side_a, side_b):
    seen = set(side_a)
    stack = list(side_a)
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w in removed or w in seen:
                continue
            if w in side_b:
                return False
            seen.add(w)
            stack.append(w)
    return True


def _ptolemaic_by_clique_separation(g):
    # Independent route: chordal, and for every two intersecting maximal
    # cliques A, B the set A∩B separates A∖B from B∖A.
    if not is_chordal(g):
        return False
    cliques = _maximal_cliques(g)
    for a, b in itertools.combinations(cliques, 2):
        inter = a & b
        if inter and not _separates(g, inter, a - b, b - a):
            return False
    return True


@given(graphs(max_n=7))
def test_gem_route_matches_clique_separation_route(g):
    assert is_ptolemaic(g) == _ptolemaic_by_clique_separation(g)


def test_clique_separation_route_pins_the_path6_square():
    assert not _ptolemaic_by_clique_separation(square_of_linegraph(path(6)))


@given(graphs(max_n=8))
def test_branch_and_bound_matches_exhaustive_clique(g):
    assert exact_max_clique(g) == max_clique_exhaustive(g)


@given(graphs(max_n=8))
def test_independent_set_matches_exhaustive(g):
    assert exact_max_independent_set(g) == max_independent_set_exhaustive(g)


@given(graphs(max_n=8))
def test_chromatic_number_matches_subset_dp(g):
    assert exact_chromatic_number(g) == chromatic_number_exhaustive(g)


@given(graphs(max_n=8))
def test_chromatic_number_is_clique_bounded(g):
    chi = exact_chromatic_number(g)
    assert exact_max_clique(g) <= chi <= max(1, g.n) or g.n == 0


def test_oracle_report_compare():
    ok = OracleReport.compare("K4", "sci", 6, 6, 0.01)
    assert ok.agree and ok.verdict == "agree"
    bad = OracleReport.compare("K4", "sci", 6, 5, 0.01)
    assert not bad.agree and bad.verdict == "disagree"


def test_timed_returns_result_and_elapsed():
    value, elapsed = timed(exact_max_clique, clique(5))
    assert value == 5 and elapsed >= 0.0
