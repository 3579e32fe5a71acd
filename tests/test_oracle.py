import itertools
import random

import pytest
from hypothesis import given

from strongedge import (
    BudgetExceededError,
    OracleReport,
    PermutationDiagram,
    build_graph,
    exact_chromatic_number,
    exact_max_clique,
    exact_max_independent_set,
    has_induced_cycle_at_least,
    is_chordal,
    is_clique,
    is_ptolemaic,
    permutation_graph,
    random_labeled_tree,
    square_of_linegraph,
)
from strongedge.oracle import (
    adjacency_rows,
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
    assert exact_chromatic_number(adjacency_rows(clique(6))) == 6
    assert exact_chromatic_number(adjacency_rows(cycle(5))) == 3
    assert exact_chromatic_number(square_of_linegraph(path(4))) == 3
    assert exact_chromatic_number([]) == 0
    assert exact_chromatic_number([0] * 5) == 1


def test_exact_max_independent_set_examples():
    assert exact_max_independent_set([0] * 5) == 5
    assert exact_max_independent_set(adjacency_rows(clique(5))) == 1
    assert exact_max_independent_set(square_of_linegraph(path(5))) == 2


def test_exact_max_clique_examples():
    assert exact_max_clique(adjacency_rows(clique(4))) == 4
    assert exact_max_clique(adjacency_rows(cycle(5))) == 2
    assert exact_max_clique(square_of_linegraph(clique(4))) == 6
    assert exact_max_clique([]) == 0


def test_induced_cycle_detection_examples():
    assert has_induced_cycle_at_least(adjacency_rows(cycle(5)), 5)
    assert has_induced_cycle_at_least(adjacency_rows(cycle(6)), 5)
    assert not has_induced_cycle_at_least(adjacency_rows(clique(4)), 4)
    assert not has_induced_cycle_at_least(adjacency_rows(cycle(6)), 7)
    # C4 plus a chord leaves only triangles
    assert not has_induced_cycle_at_least(
        adjacency_rows(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])), 4
    )
    with pytest.raises(ValueError):
        has_induced_cycle_at_least(adjacency_rows(cycle(5)), 2)


def test_induced_cycle_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        has_induced_cycle_at_least(adjacency_rows(cycle(12)), 12, budget=3)


def test_clique_budget_is_enforced():
    with pytest.raises(BudgetExceededError, match="budget of 1 exhausted"):
        exact_max_clique(adjacency_rows(clique(12)), budget=1)


def test_searches_deeper_than_the_stack_are_inconclusive(shallow_stack):
    # both searches take one frame per vertex: the clique search down a
    # 120-clique, the 2-coloring attempt around an odd cycle
    k120, c121 = adjacency_rows(clique(120)), adjacency_rows(cycle(121))
    with shallow_stack():
        with pytest.raises(BudgetExceededError, match="recursion limit"):
            exact_max_clique(k120)
        with pytest.raises(BudgetExceededError, match="recursion limit"):
            exact_chromatic_number(c121)
    assert exact_max_clique(k120) == 120
    assert exact_chromatic_number(c121) == 3


def _mycielski(g):
    """Mycielski's graph of g: a shadow of each vertex, adjacent to the
    vertex's neighbors, and an apex adjacent to every shadow."""
    n = g.n
    shadows = [(u, n + v) for u, v in g.edges] + [(v, n + u) for u, v in g.edges]
    return build_graph(2 * n + 1, g.edges + shadows + [(n + i, 2 * n) for i in range(n)])


def _random_graph(n, seed):
    rng = random.Random(seed)
    return build_graph(
        n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    )


GROTZSCH = _mycielski(cycle(5))  # triangle-free, 4-chromatic

# search, its input, further arguments, the smallest node budget that
# answers, and the answer.  The budgets were recorded when the solvers
# still searched Graphs; a change of representation must keep them.
SEARCH_EFFORT = {
    "clique": (exact_max_clique, adjacency_rows(_random_graph(40, 3)), (), 23, 7),
    "independent-set": (
        exact_max_independent_set, adjacency_rows(_random_graph(40, 3)), (), 36, 7
    ),
    # omega 2 and a DSATUR bound of 4: k = 2 and k = 3 are searched
    "chromatic-k-colorable": (exact_chromatic_number, adjacency_rows(GROTZSCH), (), 33, 4),
    # the clique number meets the DSATUR bound
    "chromatic-dsatur-bound": (
        exact_chromatic_number,
        square_of_linegraph(permutation_graph(PermutationDiagram(7, (1, 2, 4, 0, 6, 5, 3)))),
        (),
        5,
        4,
    ),
    "chromatic-clique": (exact_chromatic_number, adjacency_rows(clique(6)), (), 0, 6),
    "induced-cycle-c9": (has_induced_cycle_at_least, adjacency_rows(cycle(9)), (9,), 14, True),
    "induced-cycle-grotzsch": (
        has_induced_cycle_at_least, adjacency_rows(GROTZSCH), (6,), 31, True
    ),
    "induced-cycle-none": (
        has_induced_cycle_at_least,
        square_of_linegraph(random_labeled_tree(9, random.Random(3))),
        (4,),
        53,
        False,
    ),
}


@pytest.mark.parametrize("name", SEARCH_EFFORT)
def test_search_effort_is_pinned(name):
    search, rows, args, nodes, answer = SEARCH_EFFORT[name]
    if nodes:  # a clique is settled without search, at any budget
        with pytest.raises(BudgetExceededError):
            search(rows, *args, budget=nodes - 1)
    assert search(rows, *args, budget=nodes) == answer


def test_is_clique():
    assert is_clique([0])
    assert is_clique([])
    assert is_clique(adjacency_rows(clique(4)))
    assert not is_clique(adjacency_rows(build_graph(4, [(0, 1), (2, 3)])))


GEM = build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)])


def test_ptolemaic_examples():
    assert is_ptolemaic(adjacency_rows(path(6)))
    assert is_ptolemaic(adjacency_rows(clique(5)))
    assert is_ptolemaic([])
    assert not is_ptolemaic(adjacency_rows(cycle(4)))  # not even chordal
    assert is_chordal(adjacency_rows(GEM))
    assert not is_ptolemaic(adjacency_rows(GEM))


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
    assert is_ptolemaic(adjacency_rows(t))


def _neighbor_sets(rows):
    return [{w for w in range(len(rows)) if row >> w & 1} for row in rows]


def _maximal_cliques(rows):
    # Bron-Kerbosch; fine at test sizes.
    adj = _neighbor_sets(rows)
    out = []

    def bk(r, p, x):
        if not p and not x:
            out.append(r)
            return
        for v in sorted(p):
            bk(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bk(set(), set(range(len(rows))), set())
    return out


def _separates(adj, removed, side_a, side_b):
    seen = set(side_a)
    stack = list(side_a)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in removed or w in seen:
                continue
            if w in side_b:
                return False
            seen.add(w)
            stack.append(w)
    return True


def _ptolemaic_by_clique_separation(rows):
    # Independent route: chordal, and for every two intersecting maximal
    # cliques A, B the set A∩B separates A∖B from B∖A.
    if not is_chordal(rows):
        return False
    adj = _neighbor_sets(rows)
    cliques = _maximal_cliques(rows)
    for a, b in itertools.combinations(cliques, 2):
        inter = a & b
        if inter and not _separates(adj, inter, a - b, b - a):
            return False
    return True


@given(graphs(max_n=7))
def test_gem_route_matches_clique_separation_route(g):
    rows = adjacency_rows(g)
    assert is_ptolemaic(rows) == _ptolemaic_by_clique_separation(rows)


def test_clique_separation_route_pins_the_path6_square():
    assert not _ptolemaic_by_clique_separation(square_of_linegraph(path(6)))


@given(graphs(max_n=8))
def test_branch_and_bound_matches_exhaustive_clique(g):
    rows = adjacency_rows(g)
    assert exact_max_clique(rows) == max_clique_exhaustive(rows)


@given(graphs(max_n=8))
def test_independent_set_matches_exhaustive(g):
    rows = adjacency_rows(g)
    assert exact_max_independent_set(rows) == max_independent_set_exhaustive(rows)


@given(graphs(max_n=8))
def test_chromatic_number_matches_subset_dp(g):
    rows = adjacency_rows(g)
    assert exact_chromatic_number(rows) == chromatic_number_exhaustive(rows)


@given(graphs(max_n=8))
def test_chromatic_number_is_clique_bounded(g):
    rows = adjacency_rows(g)
    chi = exact_chromatic_number(rows)
    assert exact_max_clique(rows) <= chi <= max(1, g.n) or g.n == 0


def test_oracle_report_compare():
    ok = OracleReport.compare("K4", "sci", 6, 6, 0.01)
    assert ok.agree and ok.verdict == "agree"
    bad = OracleReport.compare("K4", "sci", 6, 5, 0.01)
    assert not bad.agree and bad.verdict == "disagree"


def test_timed_returns_result_and_elapsed():
    value, elapsed = timed(exact_max_clique, adjacency_rows(clique(5)))
    assert value == 5 and elapsed >= 0.0
