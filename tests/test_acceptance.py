"""Acceptance gate: nine numbered end-to-end checks, one printed
PASS/FAIL line each (replayed in the run summary via -rA).

Every criterion is zero-tolerance unless its printed line says otherwise.
Corpora are seeded and fixed, so the whole file is deterministic.
"""

import itertools
import random
import time

import pytest

from strongedge import (
    DecompositionTree,
    PermutationDiagram,
    TreeLeaf,
    exact_chromatic_number,
    exact_max_independent_set,
    im,
    inversions,
    is_induced_matching,
    is_strong_edge_coloring,
    permutation_graph,
    random_labeled_tree,
    random_tree_cograph,
    realize,
    sci,
    square_of_linegraph,
    strong_color_permutation,
    strong_coloring,
    tree_from_prufer,
)
from strongedge.oracle import (
    adjacency_rows,
    complement,
    exact_max_clique,
    has_induced_cycle_at_least,
    is_chordal,
    is_clique,
    is_ptolemaic,
)
from strongedge.permutation import trapezoid_model, trapezoids_intersect
from strategies import _bench_instance, tree_diameter


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _seeded_corpus(first_seed, count, max_depth, max_leaf_size, n_lo, n_hi):
    out = []
    seed = first_seed
    while len(out) < count:
        t = random_tree_cograph(seed, max_depth, max_leaf_size)
        seed += 1
        if n_lo <= t.n <= n_hi:
            out.append(t)
    return out


@pytest.fixture(scope="session")
def small_corpus_facts():
    """1,000 decompositions with realized n <= 12, plus one oracle pass
    over each squared linegraph (chi, omega, max independent set)."""
    facts = []
    for t in _seeded_corpus(0, 1000, 4, 6, 1, 12):
        g = realize(t)
        sq = square_of_linegraph(g)
        facts.append({
            "tree": t,
            "graph": g,
            "chi": exact_chromatic_number(sq),
            "omega": exact_max_clique(sq),
            "mis": exact_max_independent_set(sq),
        })
    return facts


def test_criterion_01_strong_index_matches_oracle(small_corpus_facts):
    bad = sum(1 for f in small_corpus_facts if sci(f["tree"]).value != f["chi"])
    report(
        1,
        bad == 0,
        f"sci == chi(L(G)^2) on {len(small_corpus_facts)} decompositions "
        f"with n <= 12 (mismatches: {bad})",
    )


def test_criterion_02_squares_are_perfect_here(small_corpus_facts):
    bad = sum(1 for f in small_corpus_facts if f["omega"] != f["chi"])
    report(
        2,
        bad == 0,
        f"omega(L(G)^2) == chi(L(G)^2) on the same {len(small_corpus_facts)} "
        f"squares (mismatches: {bad})",
    )


def test_criterion_03_coloring_certificates_at_n200():
    corpus = _seeded_corpus(1_000_000, 1000, 4, 30, 1, 200)
    bad = 0
    for t in corpus:
        g = realize(t)
        coloring = strong_coloring(t)
        if not is_strong_edge_coloring(g, coloring):
            bad += 1
        elif coloring.palette_size != sci(t).value:
            bad += 1
    report(
        3,
        bad == 0,
        f"strong_coloring valid and palette == sci on {len(corpus)} "
        f"decompositions with n <= 200 (failures: {bad})",
    )


def test_criterion_04_induced_matching_matches_oracle(small_corpus_facts):
    bad = 0
    for f in small_corpus_facts:
        result = im(f["tree"])
        witness = list(result.witness)
        if result.value != f["mis"]:
            bad += 1
        elif len(witness) != result.value:
            bad += 1
        elif not is_induced_matching(f["graph"], witness):
            bad += 1
    report(
        4,
        bad == 0,
        f"im == MIS(L(G)^2) with verified witness on "
        f"{len(small_corpus_facts)} decompositions (failures: {bad})",
    )


def test_criterion_05_tree_dp_exhaustive_and_random():
    bad = exhaustive = 0
    for n in range(1, 8):
        for seq in itertools.product(range(n), repeat=max(0, n - 2)):
            t = tree_from_prufer(n, list(seq))
            exhaustive += 1
            if im(DecompositionTree(TreeLeaf(t))).value != exact_max_independent_set(
                square_of_linegraph(t)
            ):
                bad += 1
    rng = random.Random(5)
    for _ in range(10_000):
        t = random_labeled_tree(rng.randint(8, 16), rng)
        if im(DecompositionTree(TreeLeaf(t))).value != exact_max_independent_set(
            square_of_linegraph(t)
        ):
            bad += 1
    report(
        5,
        bad == 0,
        f"im on a tree leaf == MIS(L(T)^2) on {exhaustive} exhaustive trees (n <= 7) "
        f"and 10000 random trees (n = 8..16) (mismatches: {bad})",
    )


def test_criterion_06_structural_properties():
    long_cycles = 0
    for t in _seeded_corpus(10_000, 500, 4, 6, 1, 12):
        if has_induced_cycle_at_least(adjacency_rows(realize(t)), 5):
            long_cycles += 1

    # L(T)^2 is always chordal (Cameron 1989), but ptolemaic exactly when
    # diam(T) <= 4.  (=>) Edges e0..e4 of a path in T are at L-distance
    # |i - j|, so any 6-vertex path gives the gem e2 -> e0-e1-e3-e4.
    # (<=) diam <= 3 makes L(T)^2 a clique; diam 4 with centre c makes it
    # the join of c's edges (a clique) with one clique per neighbour of c,
    # which is P4-free and chordal, hence ptolemaic.
    rng = random.Random(600)
    not_chordal = not_ptolemaic = long_diameter = mismatches = 0
    for _ in range(500):
        t = random_labeled_tree(rng.randint(1, 12), rng)
        sq = square_of_linegraph(t)
        if not is_chordal(sq):
            not_chordal += 1
        ptolemaic = is_ptolemaic(sq)
        short = tree_diameter(t) <= 4
        not_ptolemaic += not ptolemaic
        long_diameter += not short
        mismatches += ptolemaic != short

    rng = random.Random(601)
    not_clique = 0
    for _ in range(500):
        t = random_labeled_tree(rng.randint(3, 12), rng)
        if not is_clique(square_of_linegraph(complement(t))):
            not_clique += 1

    ok = long_cycles == not_chordal == mismatches == not_clique == 0
    # Both sides of the characterization must occur, or it is not tested.
    ok = ok and 0 < not_ptolemaic < 500
    report(
        6,
        ok,
        "500 instances each — induced cycles >= 5 in tree-cographs: "
        f"{long_cycles}; L(T)^2 not chordal: {not_chordal}; L(T)^2 not "
        f"ptolemaic: {not_ptolemaic}, diam(T) >= 5: {long_diameter} "
        f"(mismatches: {mismatches}); complement-leaf squares not "
        f"cliques: {not_clique}",
    )


def _trapezoid_rows(traps, n):
    """Bitset row per trapezoid: the others it meets.  Two trapezoids are
    apart iff one lies strictly left of the other on both lines, so each
    line gets threshold masks over its positions x: the trapezoids whose
    low end is past x, and those whose high end is short of x."""
    k = len(traps)
    assert sorted(t.edge_index for t in traps) == list(range(k))

    def thresholds(lo, hi):
        at_lo, at_hi = [0] * n, [0] * n
        for t in traps:
            at_lo[lo(t)] |= 1 << t.edge_index
            at_hi[hi(t)] |= 1 << t.edge_index
        past, short = [0] * n, [0] * n
        for x in range(n - 1, 0, -1):
            past[x - 1] = past[x] | at_lo[x]
        for x in range(1, n):
            short[x] = short[x - 1] | at_hi[x - 1]
        return past, short

    top_past, top_short = thresholds(lambda t: t.top_lo, lambda t: t.top_hi)
    bot_past, bot_short = thresholds(lambda t: t.bot_lo, lambda t: t.bot_hi)
    full = (1 << k) - 1
    rows = [0] * k
    for t in traps:
        right = top_past[t.top_hi] & bot_past[t.bot_hi]
        left = top_short[t.top_lo] & bot_short[t.bot_lo]
        rows[t.edge_index] = full & ~(right | left | 1 << t.edge_index)
    return rows


def _pairwise_trapezoid_rows(traps):
    rows = [0] * len(traps)
    for a, b in itertools.combinations(traps, 2):
        if trapezoids_intersect(a, b):
            rows[a.edge_index] |= 1 << b.edge_index
            rows[b.edge_index] |= 1 << a.edge_index
    return rows


def _model_matches(pi, exhaustive):
    d = PermutationDiagram(len(pi), tuple(pi))
    traps = trapezoid_model(d, inversions(d.pi))
    rows = _trapezoid_rows(traps, d.n)
    # on the exhaustive diagrams the masks are checked against the
    # literal definition too
    if exhaustive and rows != _pairwise_trapezoid_rows(traps):
        return False
    return rows == square_of_linegraph(permutation_graph(d))


def test_criterion_07_trapezoid_model_fidelity():
    bad = exhaustive = 0
    for n in range(7):
        for pi in itertools.permutations(range(n)):
            exhaustive += 1
            if not _model_matches(pi, exhaustive=True):
                bad += 1
    rng = random.Random(7)
    for _ in range(10_000):
        pi = list(range(rng.randint(1, 40)))
        rng.shuffle(pi)
        if not _model_matches(pi, exhaustive=False):
            bad += 1
    report(
        7,
        bad == 0,
        f"trapezoid adjacency == L(G)^2 adjacency on {exhaustive} exhaustive "
        f"diagrams (n <= 6) and 10000 random diagrams (n <= 40) "
        f"(mismatches: {bad})",
    )


def test_criterion_08_permutation_coloring():
    rng = random.Random(8)
    invalid = 0
    for _ in range(1000):
        pi = list(range(rng.randint(1, 300)))
        rng.shuffle(pi)
        d = PermutationDiagram(len(pi), tuple(pi))
        g = permutation_graph(d)
        coloring = strong_color_permutation(d, inversions(d.pi))
        if not is_strong_edge_coloring(g, coloring):
            invalid += 1

    suboptimal = exhaustive = 0
    for n in range(6):
        for pi in itertools.permutations(range(n)):
            exhaustive += 1
            d = PermutationDiagram(n, pi)
            g = permutation_graph(d)
            chi = exact_chromatic_number(square_of_linegraph(g))
            coloring = strong_color_permutation(d, inversions(d.pi))
            if coloring.palette_size != chi:
                suboptimal += 1
    rng = random.Random(88)
    for n in (6, 7):
        for _ in range(5000):
            pi = list(range(n))
            rng.shuffle(pi)
            d = PermutationDiagram(n, tuple(pi))
            g = permutation_graph(d)
            chi = exact_chromatic_number(square_of_linegraph(g))
            coloring = strong_color_permutation(d, inversions(d.pi))
            if coloring.palette_size != chi:
                suboptimal += 1

    report(
        8,
        invalid == 0 and suboptimal == 0,
        f"valid colorings on 1000 random diagrams (n <= 300, invalid: "
        f"{invalid}); palette == chi(L(G)^2) on {exhaustive} exhaustive "
        f"diagrams (n <= 5) and 10000 random diagrams (n = 6, 7) "
        f"(suboptimal: {suboptimal})",
    )


def _best_of(fn, arg, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_09_linear_scaling():
    rng = random.Random(0)
    times_sci, times_im = [], []
    for n in (10**4, 10**5, 10**6):
        tree = _bench_instance(n, 512, rng)
        times_sci.append(_best_of(sci, tree))
        times_im.append(_best_of(im, tree))
    ratios = [
        times[i] / times[i - 1]
        for times in (times_sci, times_im)
        for i in (1, 2)
    ]
    ok = all(5.0 <= r <= 20.0 for r in ratios)
    ok = ok and times_sci[-1] < 5.0 and times_im[-1] < 5.0
    report(
        9,
        ok,
        "per-decade ratios "
        f"sci={[round(r, 1) for r in ratios[:2]]} "
        f"im={[round(r, 1) for r in ratios[2:]]} within [5, 20]; at n=10^6 "
        f"sci {times_sci[-1]:.2f}s and im {times_im[-1]:.2f}s (< 5s)",
    )
