"""Strong edge coloring of permutation graphs via trapezoids.

Each edge (u, v), u < v, of a permutation graph spans [u, v] on the top
line of the diagram and [pi[v], pi[u]] on the bottom line; two edges
conflict (are adjacent in the squared linegraph) exactly when these
trapezoids intersect, that is unless one lies strictly left of the other
on both lines.  So a color class is strong iff its trapezoids form a chain
of that order.  The sweep and the verifier both read the corners straight
from pi and the edge list, in increasing (top_lo, bot_lo) = (u, pi[v]):
the sweep colors the squared linegraph with a tightest-fit class choice,
which empirically uses the minimum number of colors, and
`is_chain_coloring` checks each class is a chain in one pass.
`Trapezoid` and `trapezoid_model` spell the model out for the tests that
check it against the squared linegraph.
"""

from __future__ import annotations

import bisect
import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .graph import Graph, StrongEdgeColoring, clipped_repr

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
    "is_chain_coloring",
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
        n = self.n
        bad = f"pi must be a permutation of 0..{n - 1}"
        if n != len(self.pi):
            raise PermutationError(f"{bad}: it has {len(self.pi)} values")
        # one pass naming only the first bad value, as pi may be long
        seen = bytearray(n)
        for k, v in enumerate(self.pi):
            if not (isinstance(v, int) and 0 <= v < n):
                raise PermutationError(f"{bad}: pi[{k}] = {v!r} is out of range")
            if seen[v]:
                raise PermutationError(f"{bad}: pi[{k}] = {v} is repeated")
            seen[v] = 1


def parse_permutation(text: str) -> PermutationDiagram:
    """One line of integers separated by ASCII spaces, forming a
    permutation; at most one newline may end it.

    A token is ASCII decimal digits with an optional sign; int() alone
    would also read "1_0" as 10 and accept non-ASCII digits, and
    str.split() would also split at tabs, carriage returns, Unicode spaces
    and further lines.
    """
    line = text[:-1] if text.endswith("\n") else text
    if "\n" in line:
        raise PermutationError("expected one line of numbers, found a line break inside")
    values = []
    for tok in line.split(" "):
        if not tok:
            continue
        digits = tok[1:] if tok[0] in "+-" else tok
        if not (digits.isascii() and digits.isdigit()):
            raise PermutationError(f"non-integer token {clipped_repr(tok)}")
        try:
            values.append(int(tok))
        except ValueError:  # past the interpreter's digit limit
            raise PermutationError(
                f"integer token of {len(digits)} digits is too long"
            ) from None
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


def _is_inversion_graph(d: PermutationDiagram, g: Graph) -> bool:
    """True iff g is permutation_graph(d), with no second build: a simple
    graph on d.n vertices whose every edge is an inversion, and which has
    as many edges as pi has inversions, is the inversion graph."""
    pi = d.pi
    return (
        g.n == d.n
        and all(u < v and pi[u] > pi[v] for u, v in g.edges)
        and g.m == _count_inversions(pi)
    )


def trapezoid_model(d: PermutationDiagram, g: Graph) -> list[Trapezoid]:
    """One trapezoid per edge of g, which must be permutation_graph(d).

    Trapezoids intersect exactly when the corresponding edges are adjacent
    in the squared linegraph of g.
    """
    if not _is_inversion_graph(d, g):
        raise PermutationError("graph does not match the permutation diagram")
    pi = d.pi
    return [Trapezoid(u, v, pi[v], pi[u], idx) for idx, (u, v) in enumerate(g.edges)]


def greedy_trapezoid_coloring(
    pi: Sequence[int], edges: Sequence[tuple[int, int]]
) -> StrongEdgeColoring:
    """Tightest-fit sweep over the trapezoids of the inversions `edges` of
    `pi`, in O(n + m log m).

    Edge (u, v) has top_lo = u, top_hi = v, bot_lo = pi[v] and bot_hi =
    pi[u].  Edges are processed in increasing (top_lo, bot_lo), which is
    unique per edge, so the sort key is the integer u * n + pi[v].  Each
    goes to a color class it is disjoint from, choosing among the
    candidates the class whose frontier reaches furthest on the bottom line
    (ties to the smallest class index); a fresh class is opened only when
    none fits.  Per class only the frontier (the last member's right ends)
    is kept: class members are totally ordered left-to-right on both lines,
    so clearing the frontier clears the whole class, and because top_lo
    never decreases the frontier test is exact, not just sufficient.

    The candidates are found without scanning the classes.  A class waits
    in the bucket of its top frontier, a vertex, until top_lo passes it;
    buckets are released in increasing order as top_lo grows.  From then
    on the class stays free until it is picked, and free classes sit in a
    min-heap of class ids per bottom frontier.  A sorted list of the bottom
    frontiers that have free classes answers "largest frontier < bot_lo"
    by bisection; it holds at most n values, so keeping it sorted costs a
    short memory move per class released or emptied.

    Picking the smallest class instead (plain first-fit) can exceed the
    clique number, with counterexamples from seven-point diagrams on up.
    The tightest-fit choice never hurts later trapezoids: anything that fits
    a fuller class also fits an emptier one.  Optimality is the tested
    greedy hypothesis; the oracle acceptance tests keep it honest.
    """
    n = len(pi)
    keys = [u * n + pi[v] for u, v in edges]
    fbot: list[int] = []
    waiting: list[list[int]] = [[] for _ in range(n)]
    released = 0
    free: dict[int, list[int]] = {}
    free_fbots: list[int] = []
    colors = [0] * len(edges)
    for i in sorted(range(len(edges)), key=keys.__getitem__):
        u, v = edges[i]
        while released < u:
            for c in waiting[released]:
                b = fbot[c]
                if b in free:
                    heapq.heappush(free[b], c)
                else:
                    free[b] = [c]
                    bisect.insort(free_fbots, b)
            released += 1
        k = bisect.bisect_left(free_fbots, pi[v])
        if k:
            b = free_fbots[k - 1]
            c = heapq.heappop(free[b])
            if not free[b]:
                del free[b], free_fbots[k - 1]
            fbot[c] = pi[u]
        else:
            c = len(fbot)
            fbot.append(pi[u])
        waiting[v].append(c)
        colors[i] = c
    return StrongEdgeColoring.from_colors(colors)


def strong_color_permutation(d: PermutationDiagram, g: Graph) -> StrongEdgeColoring:
    """Strong edge coloring of g = permutation_graph(d) via the trapezoid
    sweep; g is checked against d, not rebuilt."""
    if not _is_inversion_graph(d, g):
        raise PermutationError("graph does not match the permutation diagram")
    return greedy_trapezoid_coloring(d.pi, g.edges)


def is_chain_coloring(
    d: PermutationDiagram, g: Graph, coloring: StrongEdgeColoring
) -> bool:
    """True iff g is permutation_graph(d), its edges come in non-decreasing
    top_lo, and every color class is a chain of trapezoids, which makes
    the coloring a strong edge coloring of g; O(n log n + m) time and
    O(palette) memory beyond the graph check.

    Two edges are not adjacent in the squared linegraph iff their
    trapezoids are disjoint, iff one lies strictly left of the other on
    both lines.  That relation is transitive (a.hi < b.lo <= b.hi < c.lo
    on each line), so a class is independent iff its members form a chain,
    and a chain's order agrees with top_lo.  Read in non-decreasing top_lo,
    each member must then lie strictly right of the previous one on both
    lines: of the class's frontier (top_hi, bot_hi).  Members that share
    a top_lo share a vertex and fail the test, as they must.  The check
    reads only d, g and the colors.
    """
    colors = coloring.colors
    if len(colors) != g.m or not _is_inversion_graph(d, g):
        return False
    pi = d.pi
    top = [-1] * coloring.palette_size
    bot = [-1] * coloring.palette_size
    prev = 0
    for (u, v), c in zip(g.edges, colors):
        if u < prev or top[c] >= u or bot[c] >= pi[v]:
            return False
        prev, top[c], bot[c] = u, v, pi[u]
    return True
