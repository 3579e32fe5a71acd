"""Independent reference answers and certificate checkers.

Nothing here imports the program.  Graphs are rebuilt from the
generator's own description (see gen.py), the reference sχ′ and iν follow
the paper's recursions over that description, and tree leaves use a
two-state induced-matching DP of their own.  The checkers are sparse:
they touch each edge and vertex a bounded number of times, never a
vertex-by-palette table.
"""

from __future__ import annotations


class CheckError(Exception):
    """An output of the program disagrees with the independent checks."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --- tree-cographs -------------------------------------------------------


def cograph_size(desc: tuple) -> tuple[int, int]:
    """(n, m) of the graph a description stands for."""
    kind = desc[0]
    if kind == "tree":
        return desc[1], len(desc[2])
    if kind == "cotree":
        n = desc[1]
        return n, n * (n - 1) // 2 - len(desc[2])
    sizes = [cograph_size(c) for c in desc[1]]
    n = sum(s[0] for s in sizes)
    m = sum(s[1] for s in sizes)
    if kind == "join":
        m += (n * n - sum(s[0] * s[0] for s in sizes)) // 2
    return n, m


def cograph_nodes(desc: tuple) -> int:
    """Nodes of the binary decomposition tree: k children make k-1 nodes."""
    if desc[0] in ("tree", "cotree"):
        return 1
    return len(desc[1]) - 1 + sum(cograph_nodes(c) for c in desc[1])


def cograph_edges(desc: tuple) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) on global ids: each child's vertices follow those of the
    children before it.  Edges are normalised to u < v, in no set order."""
    edges: list[tuple[int, int]] = []

    def place(d, off: int) -> int:
        kind = d[0]
        if kind in ("tree", "cotree"):
            n = d[1]
            local = {(min(u, v), max(u, v)) for u, v in d[2]}
            if kind == "tree":
                pairs = local
            else:
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if (u, v) not in local]
            edges.extend((u + off, v + off) for u, v in pairs)
            return n
        spans = []
        start = off
        for c in d[1]:
            n = place(c, start)
            spans.append((start, start + n))
            start += n
        if kind == "join":
            for i, (a0, a1) in enumerate(spans):
                for b0, b1 in spans[i + 1:]:
                    edges.extend((u, v) for u in range(a0, a1) for v in range(b0, b1))
        return start - off

    n = place(desc, 0)
    return n, edges


def tree_sci(n: int, edges) -> int:
    """sχ′ of a tree: max over edges uv of d(u) + d(v) - 1."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max((deg[u] + deg[v] - 1 for u, v in edges), default=0)


def tree_im(n: int, edges) -> int:
    """iν of a tree by a two-state DP rooted at vertex 0.

    free[v]: best in v's subtree with v not matched;
    taken[v]: best with v matched to one child c.  Then c's children and
    v's other children are unmatched, but their own subtrees are free.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    order = [0]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    free = [0] * n
    taken = [0] * n
    for v in reversed(order):
        kids = [w for w in adj[v] if w != parent[v]]
        free[v] = sum(max(free[w], taken[w]) for w in kids)
        all_free = sum(free[w] for w in kids)
        best = None
        for c in kids:
            grand = sum(free[x] for x in adj[c] if x != v)
            val = 1 + all_free - free[c] + grand
            if best is None or val > best:
                best = val
        taken[v] = -1 if best is None else best
    return max(free[0], taken[0])


def cograph_sci(desc: tuple) -> int:
    """sχ′ by the paper's recursion: union takes the max, join adds the
    children's indices and the cross edges."""
    kind = desc[0]
    if kind == "tree":
        return tree_sci(desc[1], desc[2])
    if kind == "cotree":
        return cograph_size(desc)[1]
    vals = [cograph_sci(c) for c in desc[1]]
    if kind == "union":
        return max(vals)
    m = cograph_size(desc)[1]
    inner = sum(cograph_size(c)[1] for c in desc[1])
    return sum(vals) + (m - inner)


def cograph_im(desc: tuple) -> int:
    """iν by the paper's recursion: union adds, join takes the max of its
    children and 1; a tree complement gives 1 once it has an edge."""
    kind = desc[0]
    if kind == "tree":
        return tree_im(desc[1], desc[2])
    if kind == "cotree":
        return 1 if cograph_size(desc)[1] else 0
    vals = [cograph_im(c) for c in desc[1]]
    if kind == "union":
        return sum(vals)
    return max(max(vals), 1)


# --- permutation graphs --------------------------------------------------


def inversion_graph(pi: list[int]) -> list[tuple[int, int]]:
    """Edges (i, j), i < j, with pi[i] > pi[j].  An element moved by at
    most d places has no inversion with one more than 2d places away, so
    each scan stops there."""
    d = max((abs(p - i) for i, p in enumerate(pi)), default=0)
    n = len(pi)
    return [(i, j) for i in range(n) for j in range(i + 1, min(n, i + 2 * d + 1))
            if pi[i] > pi[j]]


def degree_bound(n: int, edges) -> int:
    """max over edges uv of d(u) + d(v) - 1: the edges at u and at v are
    pairwise in conflict, so every strong edge coloring needs that many."""
    return tree_sci(n, edges)


# --- certificates --------------------------------------------------------


def check_strong_coloring(n: int, edges, rows) -> int:
    """Check `rows` ([{"edge": [u, v], "color": c}, ...]) is a strong edge
    coloring of exactly the graph (n, edges); return its palette size.

    Strong means: the edges at one vertex have distinct colors, and the
    color sets at u and at v share only the color of uv.
    """
    require(len(rows) == len(edges), f"{len(rows)} colored edges for {len(edges)} edges")
    at: list[set[int]] = [set() for _ in range(n)]
    deg = [0] * n
    colored = []
    for row in rows:
        (u, v), c = row["edge"], row["color"]
        require(isinstance(c, int) and c >= 0, f"bad color {c!r}")
        require(0 <= u < n and 0 <= v < n, f"edge ({u},{v}) outside 0..{n - 1}")
        colored.append((min(u, v), max(u, v), c))
        at[u].add(c)
        at[v].add(c)
        deg[u] += 1
        deg[v] += 1
    require({(u, v) for u, v, _ in colored} == set(edges),
             "colored edges are not the edges of the graph")
    for v in range(n):
        require(len(at[v]) == deg[v], f"two edges at vertex {v} share a color")
    for u, v, c in colored:
        a, b = (at[u], at[v]) if len(at[u]) <= len(at[v]) else (at[v], at[u])
        shared = sum(1 for x in a if x in b)
        require(shared == 1, f"edges near ({u},{v}) share a color")
    return len({c for _, _, c in colored})


def check_induced_matching(adj: list[set[int]], witness) -> None:
    """Check `witness` pairs are edges of the graph, pairwise disjoint, and
    joined by no edge of the graph."""
    owner: dict[int, int] = {}
    for i, (u, v) in enumerate(witness):
        require(0 <= u < len(adj) and v in adj[u], f"({u},{v}) is not an edge")
        require(u not in owner and v not in owner, f"({u},{v}) shares a vertex")
        owner[u] = owner[v] = i
    for x, i in owner.items():
        for y in adj[x]:
            require(owner.get(y, i) == i, f"an edge joins matched vertices {x} and {y}")


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj
