"""Strong edge coloring of permutation graphs via trapezoids.

Each edge {i, j} of a permutation graph spans an interval on both lines of
the diagram; two edges conflict (are adjacent in the squared linegraph)
exactly when their trapezoids intersect.  A left-to-right greedy sweep over
the trapezoids therefore colors the squared linegraph directly, and with
the tightest-fit class choice it empirically uses the minimum number of
colors.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import NamedTuple

from .graph import Graph, StrongEdgeColoring

__all__ = [
    "PermutationError",
    "PermutationDiagram",
    "Trapezoid",
    "parse_permutation",
    "permutation_graph",
    "trapezoid_model",
    "trapezoids_intersect",
    "greedy_trapezoid_coloring",
    "strong_color_permutation",
]


class PermutationError(ValueError):
    """Raised for inputs that are not permutations of 0..n-1."""


@dataclass(frozen=True)
class PermutationDiagram:
    """Two-line diagram: label k sits at position k on the top line and at
    position pi[k] on the bottom line."""

    n: int
    pi: tuple[int, ...]

    def __post_init__(self):
        if self.n != len(self.pi) or sorted(self.pi) != list(range(self.n)):
            raise PermutationError(
                f"pi must be a permutation of 0..{self.n - 1}: {self.pi!r}"
            )


def parse_permutation(text: str) -> PermutationDiagram:
    """One line of whitespace-separated integers forming a permutation.

    A token is ASCII decimal digits with an optional sign; int() alone
    would also read "1_0" as 10 and accept non-ASCII digits.
    """
    values = []
    for tok in text.split():
        digits = tok[1:] if tok[0] in "+-" else tok
        if not (digits.isascii() and digits.isdigit()):
            raise PermutationError(f"non-integer token {tok!r}")
        values.append(int(tok))
    return PermutationDiagram(len(values), tuple(values))


def permutation_graph(d: PermutationDiagram) -> Graph:
    """Intersection graph of the diagram's segments: i ~ j iff the pair is
    inverted by pi.  Edges are listed in lexicographic order.

    Insertion sort enumerates the inversions in O(n + m): position j enters
    a row of the earlier positions kept sorted by pi value, from the right
    end, and every position it passes is one edge (i, j).
    """
    pi = d.pi
    row: list[int] = []
    later: list[list[int]] = [[] for _ in range(d.n)]
    for j, v in enumerate(pi):
        k = len(row)
        while k and pi[row[k - 1]] > v:
            k -= 1
            later[row[k]].append(j)
        row.insert(k, j)
    return Graph(d.n, [(i, j) for i, js in enumerate(later) for j in js])


def _count_inversions(pi: tuple[int, ...]) -> int:
    """Number of inverted pairs of pi.  Each value is inserted into a sorted
    row past the larger values before it, one per inversion, so the cost
    is O(n log n) comparisons plus O(m) entries moved."""
    row: list[int] = []
    count = 0
    for v in pi:
        k = bisect.bisect(row, v)
        count += len(row) - k
        row.insert(k, v)
    return count


class Trapezoid(NamedTuple):
    """Intervals spanned by one edge on the two diagram lines.  A named
    tuple because the model builds one per edge, and tuples are cheap to
    construct."""

    top_lo: int
    top_hi: int
    bot_lo: int
    bot_hi: int
    edge_index: int


def trapezoids_intersect(a: Trapezoid, b: Trapezoid) -> bool:
    """Disjoint only when one lies strictly left of the other on both lines."""
    if a.top_hi < b.top_lo and a.bot_hi < b.bot_lo:
        return False
    if b.top_hi < a.top_lo and b.bot_hi < a.bot_lo:
        return False
    return True


def trapezoid_model(d: PermutationDiagram, g: Graph) -> list[Trapezoid]:
    """One trapezoid per edge of g, which must be permutation_graph(d).

    Trapezoids intersect exactly when the corresponding edges are adjacent
    in the squared linegraph of g.  The check that g is the inversion graph
    needs no second build: a simple graph on d.n vertices whose every edge
    is an inversion, and which has as many edges as pi has inversions, is
    the inversion graph.
    """
    pi = d.pi
    if not (
        g.n == d.n
        and all(u < v and pi[u] > pi[v] for u, v in g.edges)
        and g.m == _count_inversions(pi)
    ):
        raise PermutationError("graph does not match the permutation diagram")
    return [Trapezoid(u, v, pi[v], pi[u], idx) for idx, (u, v) in enumerate(g.edges)]


def greedy_trapezoid_coloring(traps: list[Trapezoid]) -> StrongEdgeColoring:
    """Tightest-fit sweep by top-left corner, in O(m log m).

    Trapezoids are processed in increasing (top_lo, bot_lo, edge_index).
    Each goes to a color class it is disjoint from, choosing among the
    candidates the class whose frontier reaches furthest on the bottom line
    (ties to the smallest class index); a fresh class is opened only when
    none fits.  Per class only the frontier (the last member's right ends)
    is kept: class members are totally ordered left-to-right on both lines,
    so clearing the frontier clears the whole class, and because top_lo
    never decreases the frontier test is exact, not just sufficient.

    The candidates are found without scanning the classes.  A class waits
    in a heap keyed by its top frontier until top_lo passes it; from then
    on it stays free until it is picked, and free classes sit in a min-heap
    of class ids per bottom frontier.  A sorted list of the bottom
    frontiers that have free classes answers "largest frontier < bot_lo"
    by bisection; it holds at most n values, so keeping it sorted costs a
    short memory move per class released or emptied.

    Picking the smallest class instead (plain first-fit) can exceed the
    clique number, with counterexamples from seven-point diagrams on up.
    The tightest-fit choice never hurts later trapezoids: anything that fits
    a fuller class also fits an emptier one.  Optimality is the tested
    greedy hypothesis; the oracle acceptance tests keep it honest.
    """
    order = sorted(traps, key=lambda t: (t.top_lo, t.bot_lo, t.edge_index))
    fbot: list[int] = []
    busy: list[tuple[int, int]] = []
    free: dict[int, list[int]] = {}
    free_fbots: list[int] = []
    colors = [0] * len(traps)
    for t in order:
        while busy and busy[0][0] < t.top_lo:
            c = heapq.heappop(busy)[1]
            b = fbot[c]
            if b in free:
                heapq.heappush(free[b], c)
            else:
                free[b] = [c]
                bisect.insort(free_fbots, b)
        i = bisect.bisect_left(free_fbots, t.bot_lo)
        if i:
            b = free_fbots[i - 1]
            c = heapq.heappop(free[b])
            if not free[b]:
                del free[b], free_fbots[i - 1]
            fbot[c] = t.bot_hi
        else:
            c = len(fbot)
            fbot.append(t.bot_hi)
        heapq.heappush(busy, (t.top_hi, c))
        colors[t.edge_index] = c
    return StrongEdgeColoring.from_colors(colors)


def strong_color_permutation(d: PermutationDiagram, g: Graph) -> StrongEdgeColoring:
    """Strong edge coloring of g = permutation_graph(d) via the trapezoid
    sweep; g is checked against d, not rebuilt."""
    return greedy_trapezoid_coloring(trapezoid_model(d, g))
