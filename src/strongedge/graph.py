"""Undirected simple graphs with indexed edges, and the checks of the
certificates found on them: strong edge colorings and induced matchings."""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field


class GraphError(ValueError):
    """Raised for malformed graph inputs (self-loops, duplicates, bad ids)."""


def clipped_repr(value, limit: int = 60) -> str:
    """``repr(value)``, cut after `limit` bytes of UTF-8 at a character
    boundary and then ended with "...": an error message that quotes
    outside input stays one short line, whatever its characters."""
    text = repr(value)
    data = text.encode()
    if len(data) <= limit:
        return text
    # a character the cut splits is dropped whole
    return data[:limit].decode(errors="ignore") + "..."


class Graph:
    """Undirected simple graph on vertices 0..n-1 with a stable edge index.

    Edges keep the order in which they were supplied; every algorithm in
    this package refers to edges by their index in ``edges``.  The
    constructor trusts its edges: they must be distinct pairs ``(u, v)``
    with ``0 <= u < v < n``, as every graph this package builds itself is.
    Outside input goes through `build_graph`, which checks it.  Instances
    are treated as immutable after construction.  A Graph keeps its edges
    and nothing built from them: `adjacency` makes the neighbor lists for
    a caller that needs them.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.edges = edges

    @property
    def m(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def adjacency(g: Graph) -> list[list[int]]:
    """The neighbors of each vertex of g, in edge order.  Built anew on
    each call, in O(n + m): a Graph keeps only its edges, so a caller that
    walks neighborhoods builds the lists once and passes them on."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def build_graph(n: int, edge_pairs) -> Graph:
    """Build a Graph from outside (u, v) pairs, normalized to u < v.

    Rejects self-loops, out-of-range endpoints and duplicate edges; the
    strictness is deliberate so that edge counts of independently built
    graphs can be compared exactly.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in edge_pairs:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def nonedges(g: Graph) -> Iterator[tuple[int, int]]:
    """The pairs u < v that are not edges of g, in lexicographic order.
    Holds g's adjacency lists and one vertex's neighbors as a set."""
    adj = adjacency(g)
    for u in range(g.n):
        nbrs = set(adj[u])
        for v in range(u + 1, g.n):
            if v not in nbrs:
                yield u, v


def bfs_tree(adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """Breadth-first order of the vertices reachable from vertex 0 over
    the adjacency lists ``adj``, and each vertex's parent in that search
    (-1 at vertex 0 and at unreached vertices).  A vertex's children
    follow its adjacency order."""
    parent = [-1] * len(adj)
    seen = [False] * len(adj)
    seen[0] = True
    order = [0]
    for u in order:
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                order.append(w)
    return order, parent


def is_tree(g: Graph) -> bool:
    """True iff g is connected and acyclic (a single vertex counts).

    Union-find over the edges, with no adjacency lists: n - 1 edges that
    never join two vertices already connected leave one component.  An
    edge whose ends are already connected closes a cycle, or is a loop or
    a repeat, so n - 1 pairs in range pass only if they are distinct
    non-loop edges of a tree."""
    n = g.n
    if n == 0 or len(g.edges) != n - 1:
        return False
    root = list(range(n))
    for u, v in g.edges:
        # find both roots, halving the paths on the way
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        if u == v:
            return False
        root[u] = v
    return True


@dataclass(frozen=True)
class StrongEdgeColoring:
    """Map edge index -> color, in canonical form: colors are consecutive
    integers 0..palette_size-1 with no gaps.  The constructor takes the
    colors alone and counts ``palette_size`` from them.

    ``colors`` is any sequence of ints.  The colorings this package makes
    hold an ``array('i')``: 4 bytes per edge and no int object per color.
    Reading such an array makes a fresh int of each value past 255, so a
    check that keeps colors reads them through `interned`.
    """

    colors: Sequence[int]
    palette_size: int = field(init=False)

    def __post_init__(self):
        colors = self.colors
        k = 0  # and left 0 if a color is negative or past len - 1: a gap for sure
        if colors:
            hi = max(colors)
            if min(colors) >= 0 and hi < len(colors):
                seen = bytearray(hi + 1)
                for c in colors:
                    seen[c] = 1
                k = seen.count(1)
            if not 0 < k == hi + 1:
                raise GraphError("colors must be exactly 0..k-1 with no gaps")
        object.__setattr__(self, "palette_size", k)

    @classmethod
    def from_colors(cls, colors) -> "StrongEdgeColoring":
        """Relabel arbitrary non-negative colors to 0..k-1 in first-use
        order, into an ``array('i')``."""
        relabel: dict[int, int] = {}
        return cls(array("i", (relabel.setdefault(c, len(relabel)) for c in colors)))

    def interned(self) -> Iterator[int]:
        """The colors in edge order, each color one int object shared by
        all its edges."""
        return map(list(range(self.palette_size)).__getitem__, self.colors)

    def __len__(self) -> int:
        return len(self.colors)


def is_strong_edge_coloring(g: Graph, coloring: StrongEdgeColoring) -> bool:
    """True iff the coloring is a proper vertex coloring of L(g)^2.

    Checked without materializing the square: the coloring is strong iff
    (a) edges sharing a vertex have distinct colors and (b) for every edge
    {u,v} the colors present at u and at v have only that edge's own color
    in common.  Any violation of either condition is a pair of base edges
    at linegraph distance <= 2 with equal colors, and conversely.

    One color set per vertex holds O(m) entries in all; each edge's
    intersection costs the smaller endpoint degree, O(m * arboricity) in
    all.
    """
    colors = coloring.colors
    if len(colors) != g.m:
        raise GraphError(f"coloring has {len(colors)} entries for {g.m} edges")
    return _is_strong(g, coloring.interned())


def _is_strong(g: Graph, colors) -> bool:
    """`is_strong_edge_coloring` on the colors of g's edges, in edge order;
    it takes no color past the g.m-th, as the zip asks g.edges first."""
    at: list[set[int]] = [set() for _ in range(g.n)]
    for (u, v), c in zip(g.edges, colors):
        if c in at[u] or c in at[v]:
            return False
        at[u].add(c)
        at[v].add(c)
    return all(len(at[u] & at[v]) == 1 for u, v in g.edges)


def is_induced_matching(g: Graph, pairs: list[tuple[int, int]]) -> bool:
    """True iff ``pairs`` are edges of g forming an induced matching: no two
    share a vertex and no edge of g joins endpoints of two distinct pairs.
    One pass over g's edges finds each pair's own edge and any edge between
    two pairs."""
    owner = [-1] * g.n
    for i, (u, v) in enumerate(pairs):
        a, b = (u, v) if u < v else (v, u)
        if not 0 <= a < b < g.n or owner[a] != -1 or owner[b] != -1:
            return False
        owner[a] = owner[b] = i
    inside = 0
    for u, v in g.edges:
        ou, ov = owner[u], owner[v]
        if ou != -1 and ov != -1:
            if ou != ov:
                return False
            inside += 1
    return inside == len(pairs)
