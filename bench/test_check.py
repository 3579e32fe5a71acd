"""Tests of the benchmark's generators, reference answers and checkers,
against brute force on small graphs.  Run: python3 -m pytest bench -q"""

from __future__ import annotations

import itertools
import random

import pytest

import check
import gen


def conflict_graph(edges):
    """Pairs of edge indices at linegraph distance at most two."""
    es = [frozenset(e) for e in edges]
    present = set(es)
    out = [set() for _ in edges]
    for i, j in itertools.combinations(range(len(edges)), 2):
        a, b = es[i], es[j]
        if a & b or any(frozenset((x, y)) in present for x in a for y in b):
            out[i].add(j)
            out[j].add(i)
    return out


def brute_sci(edges) -> int:
    conf = conflict_graph(edges)
    m = len(edges)
    # the edges at u or v pairwise conflict, so no fewer colors can do
    lower = max(sum(1 for f in edges if set(f) & set(e)) for e in edges)
    for k in range(lower, m + 1):
        colors = [-1] * m

        def place(i):
            if i == m:
                return True
            for c in range(k):
                if all(colors[j] != c for j in conf[i]):
                    colors[i] = c
                    if place(i + 1):
                        return True
            colors[i] = -1
            return False

        if place(0):
            return k
    raise AssertionError("unreachable")


def brute_im(edges) -> int:
    conf = conflict_graph(edges)
    best = 0
    for mask in range(1 << len(edges)):
        chosen = [i for i in range(len(edges)) if mask >> i & 1]
        if len(chosen) > best and all(j not in conf[i] for i, j in itertools.combinations(chosen, 2)):
            best = len(chosen)
    return best


def greedy_rows(edges):
    conf = conflict_graph(edges)
    colors = []
    for i in range(len(edges)):
        used = {colors[j] for j in conf[i] if j < i}
        colors.append(next(c for c in itertools.count() if c not in used))
    return [{"edge": list(e), "color": c} for e, c in zip(edges, colors)]


def small_cograph(rng: random.Random) -> tuple:
    def leaf():
        n = rng.randint(1, 4)
        return (rng.choice(["tree", "cotree"]), n, gen.random_tree(n, rng))

    def node(depth):
        if depth == 0 or rng.random() < 0.3:
            return leaf()
        return (rng.choice(["union", "join"]), [node(depth - 1) for _ in range(rng.randint(2, 3))])

    return node(2)


def test_tree_im_matches_brute_force():
    rng = random.Random(1)
    for _ in range(150):
        n = rng.randint(1, 10)
        edges = gen.random_tree(n, rng)
        assert check.tree_im(n, edges) == brute_im(edges)
        assert check.tree_sci(n, edges) == (brute_sci(edges) if edges else 0)


def test_cograph_references_match_brute_force():
    rng = random.Random(2)
    tested = 0
    while tested < 60:
        desc = small_cograph(rng)
        n, edges = check.cograph_edges(desc)
        if not 0 < len(edges) <= 9:
            continue
        tested += 1
        assert (n, len(edges)) == check.cograph_size(desc)
        assert len(set(edges)) == len(edges)
        assert check.cograph_sci(desc) == brute_sci(edges), desc
        assert check.cograph_im(desc) == brute_im(edges), desc


def test_spider_and_star_sizes():
    rng = random.Random(3)
    n, edges = gen.spider(5, 2, rng)
    assert n == 11 and len(edges) == 10
    assert check.tree_sci(n, edges) == 5 + 2 - 1
    n, edges = gen.spider(6, 1, rng)
    assert check.degree_bound(n, edges) == 6


def test_workload_documents_are_deterministic():
    for make in (gen.cograph_hubs, lambda r: gen.cograph_deep(r, 50)):
        a = gen.cograph_document(make(random.Random(7)))
        assert a == gen.cograph_document(make(random.Random(7)))
        assert a != gen.cograph_document(make(random.Random(8)))
    assert gen.perm_sparse(random.Random(7)) == gen.perm_sparse(random.Random(7))


def test_deep_nodes_count_the_binary_chain():
    desc = gen.cograph_deep(random.Random(4), 100)
    joins = sum(1 for c in desc[1] if c[0] == "join")
    assert check.cograph_nodes(desc) == 2 * (100 + joins) - 1


@pytest.mark.parametrize("pi", [
    gen.perm_dense(random.Random(5), 60),
    gen.perm_sparse(random.Random(5), 400),
])
def test_inversion_graph_matches_definition(pi):
    n = len(pi)
    expected = [(i, j) for i in range(n) for j in range(i + 1, n) if pi[i] > pi[j]]
    assert check.inversion_graph(pi) == expected


def test_coloring_checker_accepts_valid_and_rejects_mutations():
    pi = gen.perm_sparse(random.Random(6), 40)
    edges = check.inversion_graph(pi)
    rows = greedy_rows(edges)
    palette = check.check_strong_coloring(len(pi), edges, rows)
    assert palette == len({r["color"] for r in rows})
    assert palette >= check.degree_bound(len(pi), edges)

    conf = conflict_graph(edges)
    kinds = set()
    for i, j in ((i, j) for i in range(len(edges)) for j in conf[i]):
        shares_vertex = bool(set(edges[i]) & set(edges[j]))
        if shares_vertex in kinds:
            continue
        kinds.add(shares_vertex)
        bad = [dict(r) for r in rows]
        bad[i]["color"] = bad[j]["color"]
        with pytest.raises(check.CheckError):
            check.check_strong_coloring(len(pi), edges, bad)
    assert kinds == {True, False}

    with pytest.raises(check.CheckError):
        check.check_strong_coloring(len(pi), edges, rows[1:])
    u, v = edges[0]
    moved = [dict(r) for r in rows]
    moved[0]["edge"] = [u, (v + 1) % len(pi)]
    with pytest.raises(check.CheckError):
        check.check_strong_coloring(len(pi), edges, moved)


def test_matching_checker_accepts_valid_and_rejects_mutations():
    n = 8
    path = [(i, i + 1) for i in range(n - 1)]
    adj = check.adjacency(n, path)
    check.check_induced_matching(adj, [(0, 1), (3, 4), (6, 7)])
    with pytest.raises(check.CheckError):  # the edge (1,2) joins them
        check.check_induced_matching(adj, [(0, 1), (2, 3)])
    with pytest.raises(check.CheckError):  # shares vertex 1
        check.check_induced_matching(adj, [(0, 1), (1, 2)])
    with pytest.raises(check.CheckError):  # not an edge
        check.check_induced_matching(adj, [(0, 2)])

    desc = gen.cograph_hubs(random.Random(9))
    n, edges = check.cograph_edges(desc)
    adj = check.adjacency(n, edges)
    witness = []
    taken: set[int] = set()
    for u, v in edges:
        if not ({u, v} | adj[u] | adj[v]) & taken:
            witness.append((u, v))
            taken |= {u, v}
    check.check_induced_matching(adj, witness)
    # add an edge that touches a matched edge's endpoint
    v, w = next((v, w) for pair in witness for v in pair for w in adj[v] - set(pair))
    with pytest.raises(check.CheckError):
        check.check_induced_matching(adj, witness + [(min(v, w), max(v, w))])
