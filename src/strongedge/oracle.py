"""Exact brute-force solvers and structural checkers, used to
cross-verify every fast-path result on small instances.

Nothing here is on a fast path.  The solvers and checkers take one
representation, adjacency bitset rows: one int per vertex, bit j of row i
set iff i ~ j.  `square_of_linegraph` builds L(G)^2 in that form and
`adjacency_rows` turns a plain Graph into it; only `complement` builds a
Graph.  Lex-BFS and the perfect elimination check decide chordality for
graphs of a few dozen vertices, so they are written straight from their
definitions.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .graph import Graph, nonedges

__all__ = [
    "BudgetExceededError",
    "OracleReport",
    "PerfectEliminationError",
    "adjacency_rows",
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
    "chromatic_number_exhaustive",
    "max_clique_exhaustive",
    "max_independent_set_exhaustive",
]


def complement(g: Graph) -> Graph:
    """Complement graph on the same vertex set. Quadratic."""
    return Graph(g.n, list(nonedges(g)))


def adjacency_rows(g: Graph) -> list[int]:
    """The bitset rows of g: bit j of row i is set iff i ~ j."""
    rows = [0] * g.n
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def square_of_linegraph(g: Graph) -> list[int]:
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


def _iter_bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _is_clique_on(rows: list[int], mask: int) -> bool:
    # a clique minus a vertex's neighbors leaves just that vertex
    return all(mask & ~rows[v] == 1 << v for v in _iter_bits(mask))


def is_clique(rows: list[int]) -> bool:
    return _is_clique_on(rows, (1 << len(rows)) - 1)


class PerfectEliminationError(RuntimeError):
    """Raised when a graph expected to be chordal fails the PEO check."""


def lexbfs_order(rows: list[int]) -> list[int]:
    """Lexicographic BFS visit order (Rose, Tarjan and Lueker 1976).

    Each step visits the unvisited vertex with the lexicographically
    largest label, the smallest id among ties, and appends a number
    smaller than any before it to the labels of its unvisited neighbors.
    On a chordal graph the reverse of the order is a perfect elimination
    ordering.
    """
    n = len(rows)
    label: list[list[int]] = [[] for _ in range(n)]
    unvisited = (1 << n) - 1
    order: list[int] = []
    for step in range(n, 0, -1):
        v = max(_iter_bits(unvisited), key=lambda u: (label[u], -u))
        unvisited ^= 1 << v
        order.append(v)
        for w in _iter_bits(rows[v] & unvisited):
            label[w].append(step)
    return order


def is_perfect_elimination_ordering(rows: list[int], peo: list[int]) -> bool:
    """True iff peo lists every vertex once and each vertex's later
    neighbors are pairwise adjacent."""
    if sorted(peo) != list(range(len(rows))):
        return False
    later = 0
    for v in reversed(peo):
        if not _is_clique_on(rows, rows[v] & later):
            return False
        later |= 1 << v
    return True


def is_chordal(rows: list[int]) -> bool:
    order = lexbfs_order(rows)
    order.reverse()
    return is_perfect_elimination_ordering(rows, order)


def chordal_coloring(rows: list[int]) -> list[int]:
    """Color a chordal graph with exactly its clique number of colors.

    Greedy first-fit along the Lex-BFS visit order: every vertex's earlier
    neighbors form a clique, so no vertex ever sees more than omega - 1
    blocked colors.  Raises PerfectEliminationError if the PEO check fails,
    which would mean the input was not chordal after all.
    """
    order = lexbfs_order(rows)
    if not is_perfect_elimination_ordering(rows, order[::-1]):
        raise PerfectEliminationError(
            "graph has no perfect elimination ordering (not chordal)"
        )
    colors = [-1] * len(rows)
    for v in order:
        used = {colors[w] for w in _iter_bits(rows[v])}
        colors[v] = next(c for c in range(len(rows)) if c not in used)
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


def _color_candidates(mask: int, adj: list[int]) -> list[tuple[int, int]]:
    """The coloring bound of Tomita and Seki (2003, "An efficient
    branch-and-bound algorithm for finding a maximum clique"): the
    candidates split greedily into independent classes, and a vertex of
    class c can extend the current clique by at most c more.  Returns the
    pairs (vertex, c) class by class, each class in increasing id.

    Each class is built whole, as the bit-parallel BBMC of San Segundo,
    Rodriguez-Losada and Jimenez (2011) does: the greedy independent set
    of the candidates left, taking the lowest vertex the class still
    admits and striking it and its neighbours.  First-fit in increasing id
    puts a vertex in a class iff no earlier member is adjacent to it, so
    these are its classes, in its order.
    """
    out: list[tuple[int, int]] = []
    c = 0
    while mask:
        c += 1
        admits = mask
        while admits:
            b = admits & -admits
            v = b.bit_length() - 1
            mask ^= b
            admits ^= b
            admits &= ~adj[v]
            out.append((v, c))
    return out


def exact_max_clique(rows: list[int], budget: int | None = None) -> int:
    """Exact clique number via branch and bound with a coloring bound."""
    return _max_clique_impl(rows, _Budget(budget))[0]


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


def exact_max_independent_set(rows: list[int], budget: int | None = None) -> int:
    """Exact maximum independent set size: the clique number of the
    complement, searched on complemented adjacency rows."""
    full = (1 << len(rows)) - 1
    co_rows = [full & ~row & ~(1 << v) for v, row in enumerate(rows)]
    return _max_clique_impl(co_rows, _Budget(budget))[0]


def exact_chromatic_number(rows: list[int], budget: int | None = None) -> int:
    """Exact chromatic number.

    Branch and bound: the clique number gives the lower bound (and its
    vertices are pre-colored to break symmetry), a DSATUR greedy run gives
    the upper bound, and k-colorability is decided by backtracking with
    most-saturated-first selection for increasing k.  A clique needs no
    search: its n vertices take n colors.
    """
    if is_clique(rows):
        return len(rows)
    if not any(rows):
        return 1
    b = _Budget(budget)
    lb, clique_mask = _max_clique_impl(rows, b)
    ub = _dsatur_bound(rows)
    if lb == ub:
        return lb
    clique = list(_iter_bits(clique_mask))
    for k in range(lb, ub):
        if _k_colorable(rows, k, clique, b):
            return k
    return ub


class _Saturation:
    """The colors each vertex sees, for most-saturated-first selection:
    per color, the mask of the vertices with a neighbor of that color, and
    per vertex, how many colors it sees."""

    __slots__ = ("rows", "degree", "near", "count")

    def __init__(self, rows: list[int], colors: int):
        self.rows = rows
        self.degree = [row.bit_count() for row in rows]
        self.near = [0] * colors
        self.count = [0] * len(rows)

    def place(self, v: int, c: int) -> int:
        """Color v with c; returns the vertices that now first see c."""
        new = self.rows[v] & ~self.near[c]
        self.near[c] |= new
        for w in _iter_bits(new):
            self.count[w] += 1
        return new

    def unplace(self, c: int, new: int):
        """Undo the latest `place` still standing, which colored with c
        and returned new."""
        self.near[c] ^= new
        for w in _iter_bits(new):
            self.count[w] -= 1

    def pick(self, uncolored: int) -> int:
        """The uncolored vertex seeing the most colors, then of highest
        degree, then of smallest id."""
        count, degree = self.count, self.degree
        return max(_iter_bits(uncolored), key=lambda u: (count[u], degree[u], -u))


def _dsatur_bound(rows: list[int]) -> int:
    n = len(rows)
    seen = _Saturation(rows, n)
    uncolored = (1 << n) - 1
    used = 0
    while uncolored:
        v = seen.pick(uncolored)
        uncolored ^= 1 << v
        c = next(k for k in range(n) if not seen.near[k] >> v & 1)
        seen.place(v, c)
        used = max(used, c + 1)
    return used


def _k_colorable(rows: list[int], k: int, clique: list[int], budget: _Budget) -> bool:
    n = len(rows)
    if len(clique) > k:
        return False
    if n <= k:
        return True
    seen = _Saturation(rows, k)
    uncolored = (1 << n) - 1
    for i, v in enumerate(clique):
        seen.place(v, i)
        uncolored ^= 1 << v

    def solve(uncolored: int, used: int) -> bool:
        budget.spend()
        if uncolored == 0:
            return True
        v = seen.pick(uncolored)
        for c in range(min(k, used + 1)):
            if seen.near[c] >> v & 1:
                continue
            new = seen.place(v, c)
            if solve(uncolored ^ (1 << v), max(used, c + 1)):
                return True
            seen.unplace(c, new)
        return False

    return _search(solve, uncolored, len(clique))


def has_induced_cycle_at_least(
    rows: list[int], k: int, budget: int | None = 10**6
) -> bool:
    """True iff the graph has an induced (chordless) cycle of length >= k.

    DFS over chordless paths anchored at the cycle's minimum vertex.
    Raises BudgetExceededError when the expansion budget runs out, so an
    oversized search can never silently report absence.
    """
    if k < 3:
        raise ValueError("cycle length threshold must be at least 3")
    b = _Budget(budget)
    for s, row_s in enumerate(rows):
        above = -1 << (s + 1)  # the vertices > s
        # (path, inner): path = [s, v1, ..., vt], chordless, internal
        # vertices all > s; inner is the mask of v1..v_{t-1}
        stack = [([s, v], 0) for v in _iter_bits(row_s & above)]
        while stack:
            path, inner = stack.pop()
            b.spend()
            tail = path[-1]
            for w in _iter_bits(rows[tail] & above & ~inner):
                if rows[w] & inner:
                    continue
                if row_s >> w & 1:
                    # closing edge: cycle s..tail,w of length len(path)+1
                    if len(path) + 1 >= k and path[1] < w:
                        return True
                else:
                    stack.append((path + [w], inner | 1 << tail))
    return False


def is_ptolemaic(rows: list[int]) -> bool:
    """Chordal and gem-free (a gem is a P4 plus a vertex seeing all of it)."""
    return is_chordal(rows) and not _has_induced_gem(rows)


def _has_induced_gem(rows: list[int]) -> bool:
    for inside in rows:  # the neighborhood of an apex
        # induced P4 a-b-c-d within it
        for b in _iter_bits(inside):
            around_b = rows[b] & inside
            for a in _iter_bits(around_b):
                for c in _iter_bits(around_b & ~rows[a] & ~(1 << a)):
                    # d is neither a nor b, as a ~ b
                    if rows[c] & inside & ~rows[a] & ~rows[b]:
                        return True
    return False


def max_clique_exhaustive(rows: list[int]) -> int:
    """Independent cross-check: scan all vertex subsets. Only for tiny n."""
    return max(
        (mask.bit_count() for mask in range(1 << len(rows)) if _is_clique_on(rows, mask)),
        default=0,
    )


def max_independent_set_exhaustive(rows: list[int]) -> int:
    return max(
        (mask.bit_count() for mask in range(1 << len(rows))
         if all(mask & rows[v] == 0 for v in _iter_bits(mask))),
        default=0,
    )


def chromatic_number_exhaustive(rows: list[int]) -> int:
    """Independent cross-check: subset DP over independent sets, O(3^n)."""
    n = len(rows)
    if n == 0:
        return 0
    full = (1 << n) - 1
    independent = [False] * (full + 1)
    independent[0] = True
    for mask in range(1, full + 1):
        b = mask & -mask
        v = b.bit_length() - 1
        rest = mask ^ b
        independent[mask] = independent[rest] and (rows[v] & rest) == 0
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
