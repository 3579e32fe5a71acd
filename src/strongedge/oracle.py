"""Exact brute-force solvers, structural checkers and the graphs they run
on, used to cross-verify every fast-path result on small instances.

Nothing here is on a fast path.  `square_rows` builds L(G)^2 as bitset
rows, one per edge of G, and `square_of_linegraph` its Graph; the solvers
search bitset rows.  Lex-BFS and the perfect elimination check decide
chordality for graphs of a few dozen vertices, so they are written
straight from their definitions.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, nonedges

__all__ = [
    "BudgetExceededError",
    "OracleReport",
    "PerfectEliminationError",
    "chordal_coloring",
    "complement",
    "exact_chromatic_number",
    "exact_max_clique",
    "exact_max_independent_set",
    "has_induced_cycle_at_least",
    "is_chordal",
    "is_clique",
    "is_perfect_elimination_ordering",
    "is_ptolemaic",
    "lexbfs_order",
    "square_of_linegraph",
    "square_rows",
    "chromatic_number_exhaustive",
    "max_clique_exhaustive",
    "max_independent_set_exhaustive",
]


def complement(g: Graph) -> Graph:
    """Complement graph on the same vertex set. Quadratic."""
    return Graph(g.n, list(nonedges(g)))


def square_rows(g: Graph) -> list[int]:
    """L(g)^2 as bitset rows over the edge indices of g: bit f of row
    e = {u,v} is set when f != e and the two edges share an endpoint or an
    edge of g joins their endpoints, that is when f has an endpoint in
    N[u] | N[v].  So row e ORs the incidence masks of N[u] | N[v]."""
    incident = [0] * g.n
    for idx, (u, v) in enumerate(g.edges):
        incident[u] |= 1 << idx
        incident[v] |= 1 << idx
    near = incident[:]
    for w, nbrs in enumerate(g.adj):
        for x in nbrs:
            near[w] |= incident[x]
    return [(near[u] | near[v]) & ~(1 << i) for i, (u, v) in enumerate(g.edges)]


def square_of_linegraph(g: Graph) -> Graph:
    """L(g)^2 as a Graph: one vertex per edge of g, adjacent as in
    `square_rows`, with its edges in lexicographic order."""
    sq_edges: list[tuple[int, int]] = []
    for idx, row in enumerate(square_rows(g)):
        # bin() lists bits highest first; reversed, char k is bit idx + 1 + k
        above = bin(row >> (idx + 1))[:1:-1]
        sq_edges.extend((idx, idx + 1 + k) for k, b in enumerate(above) if b == "1")
    return Graph(g.m, sq_edges)


class PerfectEliminationError(RuntimeError):
    """Raised when a graph expected to be chordal fails the PEO check."""


def lexbfs_order(g: Graph) -> list[int]:
    """Lexicographic BFS visit order (Rose, Tarjan and Lueker 1976).

    Each step visits the unvisited vertex with the lexicographically
    largest label, the smallest id among ties, and appends a number
    smaller than any before it to the labels of its unvisited neighbors.
    On a chordal graph the reverse of the order is a perfect elimination
    ordering.
    """
    label: list[list[int]] = [[] for _ in range(g.n)]
    unvisited = set(range(g.n))
    order: list[int] = []
    for step in range(g.n, 0, -1):
        v = max(unvisited, key=lambda u: (label[u], -u))
        unvisited.remove(v)
        order.append(v)
        for w in g.adj[v]:
            if w in unvisited:
                label[w].append(step)
    return order


def is_perfect_elimination_ordering(g: Graph, peo: list[int]) -> bool:
    """True iff peo lists every vertex once and each vertex's later
    neighbors are pairwise adjacent."""
    if sorted(peo) != list(range(g.n)):
        return False
    pos = [0] * g.n
    for i, v in enumerate(peo):
        pos[v] = i
    adjset = [set(nbrs) for nbrs in g.adj]
    return all(
        b in adjset[a]
        for v in peo
        for a, b in combinations([w for w in g.adj[v] if pos[w] > pos[v]], 2)
    )


def is_chordal(g: Graph) -> bool:
    order = lexbfs_order(g)
    order.reverse()
    return is_perfect_elimination_ordering(g, order)


def chordal_coloring(g: Graph) -> list[int]:
    """Color a chordal graph with exactly its clique number of colors.

    Greedy first-fit along the Lex-BFS visit order: every vertex's earlier
    neighbors form a clique, so no vertex ever sees more than omega - 1
    blocked colors.  Raises PerfectEliminationError if the PEO check fails,
    which would mean the input was not chordal after all.
    """
    order = lexbfs_order(g)
    if not is_perfect_elimination_ordering(g, order[::-1]):
        raise PerfectEliminationError(
            "graph has no perfect elimination ordering (not chordal)"
        )
    colors = [-1] * g.n
    for v in order:
        used = {colors[w] for w in g.adj[v]}
        colors[v] = next(c for c in range(g.n) if c not in used)
    return colors


class BudgetExceededError(RuntimeError):
    """Search exceeded its node-expansion budget or the interpreter's
    recursion limit; the result is inconclusive."""


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one fast-path vs oracle comparison."""

    instance: str
    prop: str
    fast_value: int
    oracle_value: int
    verdict: str
    elapsed: float

    @classmethod
    def compare(cls, instance, prop, fast_value, oracle_value, elapsed):
        verdict = "agree" if fast_value == oracle_value else "disagree"
        return cls(instance, prop, fast_value, oracle_value, verdict, elapsed)

    @property
    def agree(self) -> bool:
        return self.verdict == "agree"


class _Budget:
    __slots__ = ("limit", "left")

    def __init__(self, limit: int | None):
        self.limit = self.left = limit

    def spend(self):
        if self.left is not None:
            self.left -= 1
            if self.left < 0:
                raise BudgetExceededError(
                    f"search node budget of {self.limit} exhausted"
                )


def _search(recurse, *args):
    """Run a recursive search, which takes one frame per vertex it picks;
    running out of stack is as inconclusive as running out of budget."""
    try:
        return recurse(*args)
    except RecursionError:
        raise BudgetExceededError(
            f"search went deeper than the recursion limit of "
            f"{sys.getrecursionlimit()} frames"
        ) from None


def _adj_bits(g: Graph) -> list[int]:
    bits = [0] * g.n
    for u, v in g.edges:
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return bits


def _iter_bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _color_candidates(mask: int, adj: list[int]) -> list[tuple[int, int]]:
    # Greedy partition of the candidate set into independent classes; a
    # vertex in class c can extend the current clique to at most c more.
    classes: list[int] = []
    out: list[tuple[int, int]] = []
    for v in _iter_bits(mask):
        for ci in range(len(classes)):
            if classes[ci] & adj[v] == 0:
                classes[ci] |= 1 << v
                out.append((v, ci + 1))
                break
        else:
            classes.append(1 << v)
            out.append((v, len(classes)))
    out.sort(key=lambda t: t[1])
    return out


def exact_max_clique(g: Graph, budget: int | None = None) -> int:
    """Exact clique number via branch and bound with a coloring bound."""
    return _max_clique_impl(_adj_bits(g), _Budget(budget))[0]


def _max_clique_impl(adj: list[int], budget: _Budget) -> tuple[int, int]:
    """Returns (clique number, bitmask of one maximum clique) of the graph
    whose adjacency rows are adj."""
    n = len(adj)
    if n == 0:
        return 0, 0
    best = 0
    best_mask = 0

    def expand(rsize: int, rmask: int, cand: int):
        nonlocal best, best_mask
        budget.spend()
        if cand == 0:
            if rsize > best:
                best = rsize
                best_mask = rmask
            return
        seq = _color_candidates(cand, adj)
        for v, c in reversed(seq):
            if rsize + c <= best:
                return
            expand(rsize + 1, rmask | (1 << v), cand & adj[v])
            cand &= ~(1 << v)

    _search(expand, 0, 0, (1 << n) - 1)
    return best, best_mask


def exact_max_independent_set(g: Graph, budget: int | None = None) -> int:
    """Exact maximum independent set size: the clique number of the
    complement, searched on complemented adjacency rows."""
    full = (1 << g.n) - 1
    rows = [full & ~row & ~(1 << v) for v, row in enumerate(_adj_bits(g))]
    return _max_clique_impl(rows, _Budget(budget))[0]


def exact_chromatic_number(g: Graph, budget: int | None = None) -> int:
    """Exact chromatic number.

    Branch and bound: the clique number gives the lower bound (and its
    vertices are pre-colored to break symmetry), a DSATUR greedy run gives
    the upper bound, and k-colorability is decided by backtracking with
    most-saturated-first selection for increasing k.  A clique needs no
    search: its n vertices take n colors.
    """
    n = g.n
    if is_clique(g):
        return n
    if g.m == 0:
        return 1
    b = _Budget(budget)
    lb, clique_mask = _max_clique_impl(_adj_bits(g), b)
    ub = _dsatur_bound(g)
    if lb == ub:
        return lb
    clique = [v for v in _iter_bits(clique_mask)]
    for k in range(lb, ub):
        if _k_colorable(g, k, clique, b):
            return k
    return ub


def _dsatur_bound(g: Graph) -> int:
    n = g.n
    colors = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] == -1),
            key=lambda u: (len(neighbor_colors[u]), g.degree(u), -u),
        )
        c = colors[v] = next(k for k in range(n) if k not in neighbor_colors[v])
        for w in g.adj[v]:
            neighbor_colors[w].add(c)
    return max(colors) + 1


def _k_colorable(g: Graph, k: int, clique: list[int], budget: _Budget) -> bool:
    n = g.n
    if len(clique) > k:
        return False
    if n <= k:
        return True
    colors = [-1] * n
    # (color -> count) per vertex, to maintain saturation under backtracking
    seen: list[dict[int, int]] = [{} for _ in range(n)]

    def place(v: int, c: int):
        colors[v] = c
        for w in g.adj[v]:
            seen[w][c] = seen[w].get(c, 0) + 1

    def unplace(v: int, c: int):
        colors[v] = -1
        for w in g.adj[v]:
            if seen[w][c] == 1:
                del seen[w][c]
            else:
                seen[w][c] -= 1

    for i, v in enumerate(clique):
        place(v, i)
    used = len(clique)

    def solve(remaining: int, used: int) -> bool:
        budget.spend()
        if remaining == 0:
            return True
        v = max(
            (u for u in range(n) if colors[u] == -1),
            key=lambda u: (len(seen[u]), g.degree(u), -u),
        )
        limit = min(k, used + 1)
        for c in range(limit):
            if c in seen[v]:
                continue
            place(v, c)
            if solve(remaining - 1, max(used, c + 1)):
                return True
            unplace(v, c)
        return False

    return _search(solve, n - len(clique), used)


def has_induced_cycle_at_least(
    g: Graph, k: int, budget: int | None = 10**6
) -> bool:
    """True iff g contains an induced (chordless) cycle of length >= k.

    DFS over chordless paths anchored at the cycle's minimum vertex.
    Raises BudgetExceededError when the expansion budget runs out, so an
    oversized search can never silently report absence.
    """
    if k < 3:
        raise ValueError("cycle length threshold must be at least 3")
    n = g.n
    adjset = [set(nbrs) for nbrs in g.adj]
    b = _Budget(budget)
    for s in range(n):
        # path = [s, v1, ..., vt], chordless, internal vertices all > s
        stack: list[list[int]] = [[s, v] for v in sorted(g.adj[s]) if v > s]
        while stack:
            path = stack.pop()
            b.spend()
            tail = path[-1]
            first = path[1]
            interior = path[:-1]  # s..v_{t-1}; tail neighbors may extend
            for w in sorted(adjset[tail]):
                if w <= s or w in path:
                    continue
                if any(w in adjset[x] for x in interior[1:]):
                    continue
                if w in adjset[s]:
                    # closing edge: cycle s..tail,w of length len(path)+1
                    if len(path) + 1 >= k and first < w:
                        return True
                else:
                    stack.append(path + [w])
    return False


def is_clique(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def is_ptolemaic(g: Graph) -> bool:
    """Chordal and gem-free (a gem is a P4 plus a vertex seeing all of it)."""
    return is_chordal(g) and not _has_induced_gem(g)


def _has_induced_gem(g: Graph) -> bool:
    adjset = [set(nbrs) for nbrs in g.adj]
    for apex in range(g.n):
        nbrs = g.adj[apex]
        inside = adjset[apex]
        # induced P4 a-b-c-d within the apex's neighborhood
        for b in nbrs:
            for a in adjset[b] & inside:
                for c in adjset[b] & inside:
                    if c == a or c in adjset[a]:
                        continue
                    for d in adjset[c] & inside:
                        if d in (a, b) or d in adjset[a] or d in adjset[b]:
                            continue
                        return True
    return False


def max_clique_exhaustive(g: Graph) -> int:
    """Independent cross-check: scan all vertex subsets. Only for tiny n."""
    adj = _adj_bits(g)
    # a clique minus a vertex's neighbors leaves just that vertex
    return max(
        (mask.bit_count() for mask in range(1 << g.n)
         if all(mask & ~adj[v] == 1 << v for v in _iter_bits(mask))),
        default=0,
    )


def max_independent_set_exhaustive(g: Graph) -> int:
    adj = _adj_bits(g)
    return max(
        (mask.bit_count() for mask in range(1 << g.n)
         if all(mask & adj[v] == 0 for v in _iter_bits(mask))),
        default=0,
    )


def chromatic_number_exhaustive(g: Graph) -> int:
    """Independent cross-check: subset DP over independent sets, O(3^n)."""
    n = g.n
    if n == 0:
        return 0
    adj = _adj_bits(g)
    full = (1 << n) - 1
    independent = [False] * (full + 1)
    independent[0] = True
    for mask in range(1, full + 1):
        b = mask & -mask
        v = b.bit_length() - 1
        rest = mask ^ b
        independent[mask] = independent[rest] and (adj[v] & rest) == 0
    INF = n + 1
    dp = [INF] * (full + 1)
    dp[0] = 0
    for mask in range(1, full + 1):
        b = mask & -mask
        sub = mask
        while sub:
            if sub & b and independent[sub] and dp[mask ^ sub] + 1 < dp[mask]:
                dp[mask] = dp[mask ^ sub] + 1
            sub = (sub - 1) & mask
    return dp[full]


def timed(fn, *args, **kwargs):
    """Run fn, returning (result, elapsed seconds)."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0
