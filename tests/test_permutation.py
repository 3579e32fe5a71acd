import itertools
import random
import tracemalloc
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import given

from strongedge import (
    PermutationDiagram,
    PermutationError,
    StrongEdgeColoring,
    exact_chromatic_number,
    greedy_trapezoid_coloring,
    inversions,
    is_chain_coloring,
    is_strong_edge_coloring,
    parse_permutation,
    permutation_graph,
    square_of_linegraph,
    strong_color_permutation,
)
from strongedge.oracle import exact_max_clique
from strongedge.permutation import Trapezoid, trapezoid_model, trapezoids_intersect

from strategies import permutation_diagrams


def test_parse_permutation():
    d = parse_permutation(" 2 0 1 \n")
    assert d.n == 3 and d.pi == (2, 0, 1)
    assert parse_permutation("").n == 0
    assert parse_permutation("\n").n == 0
    assert parse_permutation("1  +0").pi == (1, 0)
    with pytest.raises(PermutationError, match="permutation"):
        parse_permutation("0 0 1")
    with pytest.raises(PermutationError, match="permutation"):
        parse_permutation("1 2 3")
    with pytest.raises(PermutationError, match="non-integer"):
        parse_permutation("0 x 1")


def test_permutation_graph_examples():
    assert permutation_graph(PermutationDiagram(3, (2, 1, 0))).m == 3
    assert permutation_graph(PermutationDiagram(3, (0, 1, 2))).m == 0
    g = permutation_graph(PermutationDiagram(4, (1, 0, 3, 2)))
    assert set(g.edges) == {(0, 1), (2, 3)}


@given(permutation_diagrams(max_n=40))
def test_permutation_graph_matches_the_pair_definition(d):
    pi = d.pi
    pairs = [(i, j) for i in range(d.n) for j in range(i + 1, d.n) if pi[i] > pi[j]]
    assert permutation_graph(d).edges == pairs


@given(permutation_diagrams(max_n=40))
def test_inversions_match_the_pair_definition(d):
    pi = d.pi
    later = [[v for v in range(u + 1, d.n) if pi[u] > pi[v]] for u in range(d.n)]
    assert inversions(pi) == later


def test_trapezoid_model_examples():
    d = PermutationDiagram(3, (2, 1, 0))
    traps = trapezoid_model(d, inversions(d.pi))
    # the edges (0,1), (0,2) and (1,2), numbered in the order of the lists
    assert [t.edge_index for t in traps] == [0, 1, 2]
    assert traps[1] == Trapezoid(0, 2, 0, 2, 1)

    d2 = PermutationDiagram(4, (1, 0, 3, 2))
    traps2 = trapezoid_model(d2, inversions(d2.pi))
    assert not trapezoids_intersect(traps2[0], traps2[1])

    empty = PermutationDiagram(3, (0, 1, 2))
    assert trapezoid_model(empty, inversions(empty.pi)) == []


def test_trapezoid_model_rejects_mismatched_graph():
    d = PermutationDiagram(3, (2, 1, 0))
    other = inversions((0, 1, 2))
    with pytest.raises(PermutationError, match="does not match"):
        trapezoid_model(d, other)

    d = PermutationDiagram(4, (1, 0, 3, 2))  # inversions (0,1) and (2,3)
    for later in (
        [[1], [2], [], []],  # right count, (1,2) not inverted
        [[1], [], [], []],  # (2,3) missing
        [[1], [], [3], [], []],  # extra vertex
    ):
        with pytest.raises(PermutationError, match="does not match"):
            trapezoid_model(d, later)


# pi = 2 0 3 1 has the inversions (0,1), (0,3) and (2,3)
_NOT_THE_INVERSIONS = {
    "missing": [[1], [], [3], []],
    "not-inverted": [[1, 2], [], [3], []],  # (0,2) instead of (0,3)
    "repeated": [[1, 1], [], [3], []],
    "out-of-order": [[3, 1], [], [3], []],
    "out-of-range": [[1, 3], [], [4], []],
    "too-few-lists": [[1, 3], [], [3]],
    "too-many-lists": [[1, 3], [], [3], [], []],
}


@pytest.mark.parametrize("later", _NOT_THE_INVERSIONS.values(), ids=_NOT_THE_INVERSIONS)
def test_lists_that_are_not_the_inversions_are_rejected(later):
    d = PermutationDiagram(4, (2, 0, 3, 1))
    assert inversions(d.pi) == [[1, 3], [], [3], []]
    with pytest.raises(PermutationError, match="do not match"):
        strong_color_permutation(d, later)
    # one color per entry passes every class test: only the lists check fails
    m = sum(map(len, later))
    assert not is_chain_coloring(d, later, StrongEdgeColoring(tuple(range(m))))


def test_trapezoids_intersect_is_symmetric_on_cases():
    a = Trapezoid(0, 1, 0, 1, 0)
    b = Trapezoid(2, 3, 2, 3, 1)
    c = Trapezoid(2, 3, 0, 1, 2)  # right of a on top, overlapping below
    assert not trapezoids_intersect(a, b) and not trapezoids_intersect(b, a)
    assert trapezoids_intersect(a, c) and trapezoids_intersect(c, a)
    assert trapezoids_intersect(a, a)


def test_greedy_coloring_examples():
    d = PermutationDiagram(4, (1, 0, 3, 2))
    c = greedy_trapezoid_coloring(d.pi, inversions(d.pi))
    assert tuple(c.colors) == (0, 0) and c.palette_size == 1

    k3 = PermutationDiagram(3, (2, 1, 0))
    c3 = greedy_trapezoid_coloring(k3.pi, inversions(k3.pi))
    assert sorted(c3.colors) == [0, 1, 2]

    assert greedy_trapezoid_coloring((), []).palette_size == 0


def test_sweep_keeps_four_bytes_per_edge():
    # on random input the palette is about two thirds of m: a tuple of
    # ints kept 8 bytes per edge and an int object per color
    pi = list(range(400))
    random.Random(11).shuffle(pi)
    pi = tuple(pi)
    later = inversions(pi)
    m = sum(map(len, later))
    tracemalloc.start()
    try:
        coloring = greedy_trapezoid_coloring(pi, later)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert isinstance(coloring.colors, array) and coloring.colors.itemsize == 4
    assert coloring.palette_size > m // 2
    # a few kB over 4m: freed lists the interpreter keeps for reuse
    assert kept < 4 * m + 16384, kept - 4 * m


def _tightest_fit_reference(traps):
    """The sweep's class choice by scanning every open class, O(m * k)."""
    order = sorted(traps, key=lambda t: (t.top_lo, t.bot_lo, t.edge_index))
    ftop, fbot = [], []
    colors = [0] * len(traps)
    for t in order:
        fits = [c for c in range(len(ftop)) if ftop[c] < t.top_lo and fbot[c] < t.bot_lo]
        if fits:
            c = max(fits, key=lambda c: (fbot[c], -c))
        else:
            c = len(ftop)
            ftop.append(0)
            fbot.append(0)
        ftop[c], fbot[c] = t.top_hi, t.bot_hi
        colors[t.edge_index] = c
    return StrongEdgeColoring.from_colors(colors)


def test_sweep_matches_the_class_scanning_reference():
    rng = random.Random(4)
    for k in range(300):
        n = rng.randint(0, 60)
        pi = list(range(n))
        if k % 2:
            rng.shuffle(pi)
        else:  # near-sorted: a few swaps of close positions
            for _ in range(rng.randint(0, n)):
                i = rng.randrange(n)
                j = min(n - 1, i + rng.randint(1, 4))
                pi[i], pi[j] = pi[j], pi[i]
        d = PermutationDiagram(n, tuple(pi))
        reference = _tightest_fit_reference(trapezoid_model(d, inversions(d.pi)))
        assert greedy_trapezoid_coloring(d.pi, inversions(d.pi)) == reference, pi


def test_strong_color_permutation_examples():
    for pi, palette in (((2, 1, 0), 3), ((0, 1, 2), 0), ((1, 0, 3, 2), 1)):
        d = PermutationDiagram(len(pi), pi)
        assert strong_color_permutation(d, inversions(d.pi)).palette_size == palette


def test_tightest_fit_handles_the_first_fit_counterexample():
    # Plain first-fit (always the lowest class index) spends 5 colors here;
    # the squared linegraph is 4-chromatic and tightest-fit finds 4.
    d = PermutationDiagram(7, (1, 2, 4, 0, 6, 5, 3))
    coloring = strong_color_permutation(d, inversions(d.pi))
    g = permutation_graph(d)
    assert is_strong_edge_coloring(g, coloring)
    sq = square_of_linegraph(g)
    assert coloring.palette_size == exact_chromatic_number(sq) == 4


def _intersection_pairs(traps):
    return {
        (a.edge_index, b.edge_index)
        for a, b in itertools.combinations(traps, 2)
        if trapezoids_intersect(a, b)
    }


@given(permutation_diagrams(max_n=10))
def test_model_fidelity_against_squared_linegraph(d):
    g = permutation_graph(d)
    traps = trapezoid_model(d, inversions(d.pi))
    rows = square_of_linegraph(g)
    got = {(min(i, j), max(i, j)) for i, j in _intersection_pairs(traps)}
    assert got == {(e, f) for e in range(g.m) for f in range(e + 1, g.m) if rows[e] >> f & 1}


@given(permutation_diagrams(max_n=12))
def test_coloring_is_valid_and_clique_bounded(d):
    coloring = strong_color_permutation(d, inversions(d.pi))
    g = permutation_graph(d)
    assert is_strong_edge_coloring(g, coloring)
    sq = square_of_linegraph(g)
    assert coloring.palette_size >= exact_max_clique(sq)


@given(permutation_diagrams(max_n=7))
def test_palette_is_optimal_at_small_sizes(d):
    coloring = strong_color_permutation(d, inversions(d.pi))
    sq = square_of_linegraph(permutation_graph(d))
    assert coloring.palette_size == exact_chromatic_number(sq)


def test_sweep_matches_oracle_on_all_five_point_diagrams():
    for pi in itertools.permutations(range(5)):
        d = PermutationDiagram(5, pi)
        palette = strong_color_permutation(d, inversions(d.pi)).palette_size
        sq = square_of_linegraph(permutation_graph(d))
        assert palette == exact_chromatic_number(sq), pi


def _recolored(coloring, i, c):
    colors = list(coloring.colors)
    colors[i] = c
    return StrongEdgeColoring.from_colors(colors)


@given(permutation_diagrams(max_n=12), st.data())
def test_chain_check_agrees_with_the_generic_checker(d, data):
    g = permutation_graph(d)
    later = inversions(d.pi)
    coloring = strong_color_permutation(d, later)
    assert is_chain_coloring(d, later, coloring)
    for _ in range(data.draw(st.integers(0, 3))):
        if not g.m:
            break
        i = data.draw(st.integers(0, g.m - 1))
        c = data.draw(st.integers(0, coloring.palette_size))
        coloring = _recolored(coloring, i, c)
    assert is_chain_coloring(d, later, coloring) == is_strong_edge_coloring(g, coloring)


def test_chain_check_on_every_single_edge_recoloring():
    checked = rejected = 0
    for n in range(7):
        for pi in itertools.permutations(range(n)):
            d = PermutationDiagram(n, pi)
            g = permutation_graph(d)
            later = inversions(d.pi)
            coloring = strong_color_permutation(d, later)
            for i in range(g.m):
                for c in range(coloring.palette_size + 1):
                    recolored = _recolored(coloring, i, c)
                    ok = is_chain_coloring(d, later, recolored)
                    assert ok == is_strong_edge_coloring(g, recolored), (pi, i, c)
                    checked += 1
                    rejected += not ok
    assert rejected and rejected < checked


def test_chain_check_rejects_unordered_edges_and_wrong_lengths():
    d = PermutationDiagram(4, (2, 0, 3, 1))
    later = inversions(d.pi)
    one_each = StrongEdgeColoring((0, 1, 2))
    assert is_chain_coloring(d, later, one_each)
    # a valid coloring, but the edges of vertex 0 no longer come in order
    assert not is_chain_coloring(d, [[3, 1], [], [3], []], one_each)
    for colors in ((0, 1), (0, 1, 2, 3)):
        assert not is_chain_coloring(d, later, StrongEdgeColoring(colors))
