"""Strong chromatic index of tree-cographs over their decomposition tree,
plus construction of an optimal strong edge coloring certificate.

The index itself is a linear fold: leaves have closed forms (degree formula
for trees, nonedge count for tree complements), a union takes the maximum
and a join adds the cross-edge count to the sum of its children.  The
certificate path pays extra (it builds each tree leaf's squared linegraph)
and is kept separate so the value-only path stays linear.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chordal import chordal_coloring
from .decomposition import (
    CotreeLeaf,
    DecompNode,
    DecompositionTree,
    JoinNode,
    TreeLeaf,
    UnionNode,
)
from .graph import Graph, GraphError, StrongEdgeColoring, is_tree, square_of_linegraph

__all__ = ["SChiResult", "sci", "sci_tree", "strong_coloring"]


@dataclass(frozen=True)
class SChiResult:
    """Strong chromatic index of the whole tree and of every subtree."""

    value: int
    per_node: dict[DecompNode, int]


def sci_tree(t: Graph) -> int:
    """Strong chromatic index of a tree: max over edges of d(x)+d(y)-1."""
    if not is_tree(t):
        raise GraphError("input is not a tree")
    return _sci_tree(t)


def _sci_tree(t: Graph) -> int:
    if t.m == 0:
        return 0
    deg = list(map(len, t.adj))
    return max(deg[u] + deg[v] for u, v in t.edges) - 1


def sci(tree: DecompositionTree) -> SChiResult:
    """Bottom-up strong chromatic index; linear in leaf sizes + tree size."""
    per_node: dict[DecompNode, int] = {}
    for node in tree.order:
        if isinstance(node, TreeLeaf):
            per_node[node] = _sci_tree(node.t)
        elif isinstance(node, CotreeLeaf):
            # L(complement of t)^2 is a clique: one color per edge
            per_node[node] = node.m
        elif isinstance(node, JoinNode):
            cross = node.left.n * node.right.n
            per_node[node] = cross + per_node[node.left] + per_node[node.right]
        else:
            per_node[node] = max(per_node[node.left], per_node[node.right])
    return SChiResult(per_node[tree.root], per_node)


def _tree_leaf_coloring(t: Graph) -> list[int]:
    """Optimal strong edge coloring of a tree, as colors per edge index.

    L(t)^2 is chordal, so a greedy pass along a Lex-BFS order colors it
    with exactly its clique number of colors; chordal_coloring verifies the
    elimination ordering and aborts loudly if it is invalid.
    """
    return chordal_coloring(square_of_linegraph(t).graph)


def strong_coloring(tree: DecompositionTree) -> StrongEdgeColoring:
    """Optimal strong edge coloring of realize(tree).

    Palette layout per node: a union lets both children reuse the same color
    range (their components never conflict); a join keeps the left child's
    range, shifts the right child's range past it, and gives the cross edges
    fresh colors after both.  The ranges are set top-down; colors are then
    emitted in post-order, which is the canonical realize edge order, and
    relabeled to first-use order.
    """
    per = sci(tree).per_node
    base = {tree.root: 0}
    for node in reversed(tree.order):
        if isinstance(node, JoinNode):
            base[node.left] = base[node]
            base[node.right] = base[node] + per[node.left]
        elif isinstance(node, UnionNode):
            base[node.left] = base[node.right] = base[node]
    colors: list[int] = []
    for node in tree.order:
        b = base[node]
        if isinstance(node, TreeLeaf):
            colors.extend(b + c for c in _tree_leaf_coloring(node.t))
        elif isinstance(node, CotreeLeaf):
            colors.extend(range(b, b + node.m))
        elif isinstance(node, JoinNode):
            cross_base = b + per[node.left] + per[node.right]
            colors.extend(range(cross_base, cross_base + node.left.n * node.right.n))
    return StrongEdgeColoring.from_colors(colors)
