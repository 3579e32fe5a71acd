"""Strong edge coloring of permutation graphs via trapezoids.

Each edge (u, v), u < v, of a permutation graph spans [u, v] on the top
line of the diagram and [pi[v], pi[u]] on the bottom line; two edges
conflict (are adjacent in the squared linegraph) exactly when these
trapezoids intersect, that is unless one lies strictly left of the other
on both lines.  So a color class is strong iff its trapezoids form a chain
of that order.  The sweep and the verifier both read the corners straight
from pi and the inversion lists of `inversions`, which hold the edges
grouped by u: the sweep colors the squared linegraph in increasing
(top_lo, bot_lo) = (u, pi[v]) with a tightest-fit class choice, which
empirically uses the minimum number of colors, and `is_chain_coloring`
checks each class is a chain in one pass.
`Trapezoid` and `trapezoid_model` spell the model out for the tests that
check it against the squared linegraph.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

from .graph import Graph, StrongEdgeColoring, clipped_repr

__all__ = [
    "PermutationError",
    "PermutationDiagram",
    "Trapezoid",
    "parse_permutation",
    "inversions",
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


def inversions(pi: Sequence[int]) -> list[list[int]]:
    """The inverted pairs of pi as one list per position: ``later[u]``
    holds the v > u with pi[v] < pi[u], in increasing order.  These are
    the edges (u, v) of the permutation graph, grouped by u.

    Insertion sort enumerates them in O(n + m): position j enters a row of
    the earlier positions kept sorted by pi value, from the right end, and
    every position it passes is one edge (i, j).
    """
    row: list[int] = []
    later: list[list[int]] = [[] for _ in range(len(pi))]
    for j, v in enumerate(pi):
        k = len(row)
        while k and pi[row[k - 1]] > v:
            k -= 1
            later[row[k]].append(j)
        row.insert(k, j)
    return later


def permutation_graph(d: PermutationDiagram) -> Graph:
    """Intersection graph of the diagram's segments: i ~ j iff the pair is
    inverted by pi.  Edges are listed in lexicographic order."""
    return Graph(d.n, [(u, v) for u, vs in enumerate(inversions(d.pi)) for v in vs])


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


def _are_inversions(pi: Sequence[int], later: Sequence[Sequence[int]]) -> bool:
    """True iff later is inversions(pi), with no second build: one list
    per position, each strictly increasing, whose every entry v > u is
    inverted with u, and none missing.

    None is missing by counting.  In the inversion graph out(u) - in(u) =
    pi[u] - u, where out(u) counts the smaller values after u and in(u)
    the larger ones before it: the values below pi[u] number pi[u], the
    positions before u number u, and the smaller values before u count in
    both.  If the listed pairs are inversions and keep that balance at
    every u, the missing ones have out = in everywhere; as each points to
    a larger position, the smallest vertex with one would have out > 0 =
    in, so there is none.  A vertex's in-degree comes from the lists
    before it, so it is complete when the vertex is reached.
    """
    n = len(pi)
    if len(later) != n:
        return False
    into = [0] * n
    for u, vs in enumerate(later):
        top = pi[u]
        if len(vs) != top - u + into[u]:
            return False
        prev = u
        for v in vs:
            if not prev < v < n or pi[v] >= top:
                return False
            into[v] += 1
            prev = v
    return True


def trapezoid_model(
    d: PermutationDiagram, later: Sequence[Sequence[int]]
) -> list[Trapezoid]:
    """One trapezoid per edge listed in `later`, which must be
    inversions(d.pi), numbered in the order of the lists.

    Trapezoids intersect exactly when the corresponding edges are adjacent
    in the squared linegraph of the permutation graph.
    """
    if not _are_inversions(d.pi, later):
        raise PermutationError("list of inversions does not match the permutation diagram")
    pi = d.pi
    pairs = ((u, v) for u, vs in enumerate(later) for v in vs)
    return [Trapezoid(u, v, pi[v], pi[u], idx) for idx, (u, v) in enumerate(pairs)]


def greedy_trapezoid_coloring(
    pi: Sequence[int], later: Sequence[Sequence[int]]
) -> StrongEdgeColoring:
    """Tightest-fit sweep over the trapezoids of the inversions `later` =
    inversions(pi), in O(n + m log n).  Each edge's color is the id of its
    class, in the edge order (u, v) of `later`, in an ``array('i')``.

    Edge (u, v) has top_lo = u, top_hi = v, bot_lo = pi[v] and bot_hi =
    pi[u].  Edges are processed in increasing (top_lo, bot_lo): top vertex
    by top vertex, each one's partners sorted by pi[v].  Each goes to a
    color class it is disjoint from, choosing among the candidates the
    class whose frontier reaches furthest on the bottom line (ties to the
    smallest class index); a fresh class is opened only when none fits.
    Per class only the frontier (the last member's right ends) is kept:
    class members are totally ordered left-to-right on both lines, so
    clearing the frontier clears the whole class, and because top_lo
    never decreases the frontier test is exact, not just sufficient.

    The candidates are found without scanning the classes.  A class waits
    in the bucket of its top frontier, a vertex, until top_lo passes it;
    buckets are released in increasing order as top_lo grows.  From then
    on the class stays free until it is picked, and free classes sit in a
    min-heap of class ids per bottom frontier.  A sorted list of the bottom
    frontiers that have free classes answers "largest frontier < bot_lo"
    by bisection; it holds at most n values, so keeping it sorted costs a
    short memory move per class released or emptied.

    Class ids count 0, 1, 2, ... in opening order, which sets the
    tie-break, and every class opens with an edge, so the ids are the
    colors 0..k-1 with no gap.  Once a top vertex's edges have their
    classes, their ids are written in the order of `later[u]`.

    The colors and the per-class state (bottom frontier and the link of
    the wait buckets, kept as linked lists) are ``array('i')``s of 4
    bytes an entry with no int object behind it.  Only the ids of free
    classes, in the heaps, are int objects.

    Picking the smallest class instead (plain first-fit) can exceed the
    clique number, with counterexamples from seven-point diagrams on up.
    The tightest-fit choice never hurts later trapezoids: anything that fits
    a fuller class also fits an emptier one.  Optimality is the tested
    greedy hypothesis; the oracle acceptance tests keep it honest.
    """
    n = len(pi)
    colors = array("i", [0]) * sum(map(len, later))
    # per class: bottom frontier and the wait-bucket link, grown ahead of
    # the classes a top vertex may open
    fbot = array("i")
    before = array("i")
    classes = 0
    # The wait buckets, as linked lists: the last class to wait at each
    # top frontier, and per class the one that waited there before it.
    # For v in later[u], last[v] is the class of edge (u, v) once u has
    # placed its edges.
    last = [-1] * n
    # bottom frontier -> heap of the free classes there
    free: list[list[int] | None] = [None] * n
    free_fbots: list[int] = []
    by_bottom = pi.__getitem__
    released = i = 0
    for u, vs in enumerate(later):
        if not vs:
            continue
        while released < u:
            c = last[released]
            while c >= 0:
                b = fbot[c]
                if free[b]:
                    heappush(free[b], c)
                else:
                    free[b] = [c]
                    insort(free_fbots, b)
                c = before[c]
            released += 1
        top = pi[u]
        if len(fbot) < classes + len(vs):
            more = array("i", [0]) * max(len(vs), classes >> 4)
            fbot += more
            before += more
        for v in sorted(vs, key=by_bottom) if len(vs) > 1 else vs:
            j = bisect_left(free_fbots, pi[v])
            if j:
                b = free_fbots[j - 1]
                heap = free[b]
                c = heappop(heap)
                if not heap:
                    free[b] = None
                    del free_fbots[j - 1]
            else:
                c = classes
                classes += 1
            fbot[c] = top
            before[c] = last[v]
            last[v] = c
        for v in vs:
            colors[i] = last[v]
            i += 1
    return StrongEdgeColoring(colors)


def strong_color_permutation(
    d: PermutationDiagram, later: Sequence[Sequence[int]]
) -> StrongEdgeColoring:
    """Strong edge coloring of the permutation graph of d via the
    trapezoid sweep; `later` must be inversions(d.pi), which is checked,
    not rebuilt."""
    if not _are_inversions(d.pi, later):
        raise PermutationError("inversion lists do not match the permutation diagram")
    return greedy_trapezoid_coloring(d.pi, later)


def is_chain_coloring(
    d: PermutationDiagram, later: Sequence[Sequence[int]], coloring: StrongEdgeColoring
) -> bool:
    """True iff `later` is inversions(d.pi), the coloring has one color per
    edge in the order of `later`, and every color class is a chain of
    trapezoids, which makes the coloring a strong edge coloring of the
    permutation graph; O(n + m) time and O(n + palette) memory.

    Two edges are not adjacent in the squared linegraph iff their
    trapezoids are disjoint, iff one lies strictly left of the other on
    both lines.  That relation is transitive (a.hi < b.lo <= b.hi < c.lo
    on each line), so a class is independent iff its members form a chain,
    and a chain's order agrees with top_lo.  Read in non-decreasing top_lo,
    each member must then lie strictly right of the previous one on both
    lines: of the class's frontier (top_hi, bot_hi).  Members that share
    a top_lo share a vertex and fail the test, as they must.  The check
    reads only d, the lists and the colors.
    """
    colors = coloring.colors
    if len(colors) != sum(map(len, later)) or not _are_inversions(d.pi, later):
        return False
    pi = d.pi
    # the frontiers hold the ints of pi and of the lists, none read from colors
    top = [-1] * coloring.palette_size
    bot = [-1] * coloring.palette_size
    color = iter(colors)
    for u, vs in enumerate(later):
        for v in vs:
            c = next(color)
            if top[c] >= u or bot[c] >= pi[v]:
                return False
            top[c], bot[c] = v, pi[u]
    return True
