"""Strong chromatic index of tree-cographs over their decomposition tree,
plus construction of an optimal strong edge coloring certificate.

The index itself is a linear fold: leaves have closed forms (degree formula
for trees, nonedge count for tree complements), a union takes the maximum
and a join adds the cross-edge count to the sum of its children.  The
certificate costs O(1) per edge: one rooted pass colors each tree leaf,
and the fold's values lay out the palette ranges, which the certificate
fills with no gap, so its colors are 0..sci-1 as they stand.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .decomposition import CotreeLeaf, DecompositionTree, JoinNode, TreeLeaf
from .graph import Graph, StrongEdgeColoring, adjacency, bfs_tree

# strong_coloring calls neither; bench/spans.py traces both by these names here.
from .oracle import chordal_coloring, square_of_linegraph  # noqa: F401

__all__ = ["SChiResult", "sci", "strong_coloring"]


@dataclass(frozen=True)
class SChiResult:
    """Strong chromatic index of the whole tree and, by post-order position
    in ``tree.order``, of every subtree: ``per_node[-1] == value``."""

    value: int
    per_node: list[int]


def _sci_tree(t: Graph) -> int:
    """Strong chromatic index of a tree: max over edges of d(x)+d(y)-1."""
    if t.m == 0:
        return 0
    deg = [0] * t.n
    for u, v in t.edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg[u] + deg[v] for u, v in t.edges) - 1


def sci(tree: DecompositionTree) -> SChiResult:
    """Bottom-up strong chromatic index; linear in leaf sizes + tree size."""
    per_node: list[int] = []
    stack: list[int] = []  # the values of the subtrees not yet given a parent
    for node in tree.order:
        if isinstance(node, TreeLeaf):
            value = _sci_tree(node.t)
        elif isinstance(node, CotreeLeaf):
            # L(complement of t)^2 is a clique: one color per edge
            value = node.m
        else:
            right, left = stack.pop(), stack.pop()
            if isinstance(node, JoinNode):
                value = node.left.n * node.right.n + left + right
            else:
                value = max(left, right)
        stack.append(value)
        per_node.append(value)
    return SChiResult(per_node[-1], per_node)


def _tree_leaf_coloring(t: Graph) -> list[int]:
    """Optimal strong edge coloring of a tree, as colors per edge index.

    Faudree, Gyarfas, Schelp and Tuza (1990): root t at vertex 0 and give
    the root's edges colors 0..deg-1.  Top down, each child p of g gives
    its child edges the first deg(p)-1 colors not on g's edges; siblings
    share them, as edges below two children of g are three linegraph steps
    apart.  No color reaches max d(x)+d(y)-1.  color[v] is the color of the
    edge from v to its parent.
    """
    adj = adjacency(t)
    order, parent = bfs_tree(adj)
    color = [0] * t.n
    for i, w in enumerate(adj[0]):
        color[w] = i
    for g in order:
        pg = parent[g]
        kids = [p for p in adj[g] if p != pg]
        need = max(map(len, map(adj.__getitem__, kids)), default=1) - 1
        if need:
            used = {color[p] for p in kids}
            if pg != -1:
                used.add(color[g])
            free = [c for c in range(need + len(used)) if c not in used]
            for p in kids:
                for c, q in zip(free, [q for q in adj[p] if q != g]):
                    color[q] = c
    return [color[v] if parent[v] == u else color[u] for u, v in t.edges]


def strong_coloring(tree: DecompositionTree) -> StrongEdgeColoring:
    """Optimal strong edge coloring of realize(tree), in the colors of the
    palette layout.

    Each node owns the color range [b, b + per) of its subtree, where per
    is its index: a union lets both children reuse its range (their
    components never conflict); a join keeps the left child's range,
    shifts the right child's past it, and gives the cross edges the top
    n1*n2 colors of its own.  One top-down pass hands each node's
    children their bases on a stack, the right child's on top, and writes
    the node's block of the canonical edge order, which lists the blocks
    in post-order, from the last edge back.

    The colors are exactly 0..sci-1, with no gap: a tree leaf uses all of
    its range, as at the edge xy attaining max d(x)+d(y)-1 the edges at x
    and y take that many distinct colors, all below it; a cotree leaf
    uses one color per edge; a union's range is its wider child's, and a
    join's is its children's ranges and its cross block back to back.
    The colors are an ``array('i')``, 4 bytes per edge.
    """
    per = sci(tree).per_node
    order = tree.order
    colors = array("i", [0]) * tree.m
    end = tree.m
    bases = [0]  # handed down to the nodes still to come, the next on top
    for i in range(len(order) - 1, -1, -1):
        node, b = order[i], bases.pop()
        if isinstance(node, TreeLeaf):
            block = array("i", [b + c for c in _tree_leaf_coloring(node.t)])
        elif isinstance(node, CotreeLeaf):
            block = array("i", range(b, b + node.m))
        elif isinstance(node, JoinNode):
            top, cross = b + per[i], node.left.n * node.right.n
            # the right child, at i - 1, starts where the left one's range ends
            bases += (b, top - cross - per[i - 1])
            block = array("i", range(top - cross, top))
        else:
            bases += (b, b)
            continue
        colors[end - len(block):end] = block
        end -= len(block)
    return StrongEdgeColoring(colors)
