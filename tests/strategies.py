"""Shared hypothesis strategies: graphs, trees, decomposition trees and
documents, and permutation diagrams sized for the exact oracles, plus a
tree-diameter helper that the tests use as an independent reference, the
union-chain instance that the scaling tests time, and decomposition trees
built together with a permutation of the same graph."""

import itertools
import random
from collections import deque

import hypothesis.strategies as st

from strongedge import (
    CotreeLeaf,
    DecompositionTree,
    Graph,
    JoinNode,
    PermutationDiagram,
    TreeLeaf,
    UnionNode,
    build_graph,
    inversions,
    is_tree,
    random_labeled_tree,
    tree_from_prufer,
)
from strongedge.graph import adjacency


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return build_graph(n, [])
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return build_graph(n, chosen)


@st.composite
def trees(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    if n <= 2:
        return build_graph(n, [(0, 1)] if n == 2 else [])
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return tree_from_prufer(n, seq)


def tree_diameter(t):
    """Number of edges on a longest path of the tree `t`.

    Two BFS passes: the vertex farthest from any start is an end of a
    longest path, and the farthest vertex from that end is the other one.
    """
    adj = adjacency(t)
    end = 0
    for _ in range(2):
        dist = {end: 0}
        queue = deque([end])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        end = max(dist, key=dist.get)
    return dist[end]


def _bench_instance(total_n: int, leaf_size: int, rng: random.Random) -> DecompositionTree:
    """Union chain over moderate leaves; realized size exactly total_n, edge
    description linear in total_n (cotree leaves stay implicit)."""
    leaves = []
    remaining = total_n
    i = 0
    while remaining:
        size = min(leaf_size, remaining)
        t = random_labeled_tree(size, rng)
        leaves.append(CotreeLeaf(t) if size >= 4 and i % 10 == 9 else TreeLeaf(t))
        remaining -= size
        i += 1
    node = leaves[0]
    for leaf in leaves[1:]:
        node = UnionNode(node, leaf)
    return DecompositionTree(node)


@st.composite
def decomposition_trees(draw, max_leaf_n=5, max_internal=3):
    def node(budget):
        if budget == 0 or draw(st.booleans()):
            t = draw(trees(max_n=max_leaf_n))
            return CotreeLeaf(t) if draw(st.booleans()) else TreeLeaf(t)
        left = node(budget - 1)
        right = node(budget - 1)
        if draw(st.booleans()):
            return JoinNode(left, right)
        return UnionNode(left, right)

    return DecompositionTree(node(max_internal))


@st.composite
def decomposition_docs(draw, max_leaf_n=4, max_depth=3, max_children=4):
    """Decomposition documents as JSON objects whose internal nodes have
    two to `max_children` children."""

    def node(depth):
        if depth == 0 or draw(st.booleans()):
            t = draw(trees(max_n=max_leaf_n))
            kind = draw(st.sampled_from(["tree", "cotree"]))
            return {"type": kind, "n": t.n, "edges": [list(e) for e in t.edges]}
        k = draw(st.integers(2, max_children))
        kind = draw(st.sampled_from(["join", "union"]))
        return {"type": kind, "children": [node(depth - 1) for _ in range(k)]}

    return node(max_depth)


@st.composite
def permutation_diagrams(draw, min_n=0, max_n=9):
    n = draw(st.integers(min_n, max_n))
    pi = draw(st.permutations(range(n)))
    return PermutationDiagram(n, tuple(pi))


def _inversion_edges(p):
    return [(u, v) for u, vs in enumerate(inversions(p)) for v in vs]


# The permutations of at most 6 points whose inversion graph is a tree
# (32 of them, all caterpillars).
_TREE_PERMUTATIONS = [
    p
    for n in range(1, 7)
    for p in itertools.permutations(range(n))
    if is_tree(Graph(n, _inversion_edges(p)))
]


def decomposition_with_permutation(depth, flip, pick):
    """A decomposition node of at most `depth` levels and a permutation
    whose inversion graph is the node's graph, vertex k at position k.

    `flip()` draws a bool, True for an internal node, a cotree leaf and a
    join, and `pick(seq)` draws an element of seq.  A leaf is a
    permutation p of `_TREE_PERMUTATIONS`, whose inversion graph t is the
    tree: TreeLeaf(t) with p, or CotreeLeaf(t) with the values of p
    complemented (n - 1 - p[k]), which inverts exactly the pairs p does
    not.  A union is the direct sum of its children's permutations (the
    right one's values placed above the left one's), a join their skew
    sum (below), which inverts every pair across.
    """
    if depth and flip():
        left, p = decomposition_with_permutation(depth - 1, flip, pick)
        right, q = decomposition_with_permutation(depth - 1, flip, pick)
        if flip():
            return JoinNode(left, right), tuple(x + len(q) for x in p) + q
        return UnionNode(left, right), p + tuple(x + len(p) for x in q)
    p = pick(_TREE_PERMUTATIONS)
    t = Graph(len(p), _inversion_edges(p))
    if flip():
        return CotreeLeaf(t), tuple(len(p) - 1 - x for x in p)
    return TreeLeaf(t), p


@st.composite
def decompositions_with_permutations(draw, max_depth=3):
    """A DecompositionTree and a permutation whose inversion graph is
    realize(tree), vertex for vertex; shrinks towards one tree leaf."""
    node, pi = decomposition_with_permutation(
        max_depth, lambda: draw(st.booleans()), lambda seq: draw(st.sampled_from(seq))
    )
    return DecompositionTree(node), pi
