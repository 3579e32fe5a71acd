"""Strong chromatic index of tree-cographs over their decomposition tree,
plus construction of an optimal strong edge coloring certificate.

The index itself is a linear fold: leaves have closed forms (degree formula
for trees, nonedge count for tree complements), a union takes the maximum
and a join adds the cross-edge count to the sum of its children.  The
certificate costs O(1) per edge: one rooted pass colors each tree leaf,
and the fold's values lay out the palette ranges.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .decomposition import CotreeLeaf, DecompositionTree, JoinNode, TreeLeaf, UnionNode
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
    for node, lf in zip(tree.order, tree.left_pos):
        if isinstance(node, TreeLeaf):
            per_node.append(_sci_tree(node.t))
        elif isinstance(node, CotreeLeaf):
            # L(complement of t)^2 is a clique: one color per edge
            per_node.append(node.m)
        elif isinstance(node, JoinNode):
            cross = node.left.n * node.right.n
            per_node.append(cross + per_node[lf] + per_node[-1])
        else:
            per_node.append(max(per_node[lf], per_node[-1]))
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
    """Optimal strong edge coloring of realize(tree).

    Palette layout per node: a union lets both children reuse the same color
    range (their components never conflict); a join keeps the left child's
    range, shifts the right child's range past it, and gives the cross edges
    fresh colors after both.  The ranges are set top-down; colors are then
    emitted in post-order, which is the canonical realize edge order, and
    relabeled to first-use order.
    """
    per = sci(tree).per_node
    order, left = tree.order, tree.left_pos
    base = [0] * len(order)
    for i in range(len(order) - 1, -1, -1):
        node, lf = order[i], left[i]
        if isinstance(node, JoinNode):
            base[lf] = base[i]
            base[i - 1] = base[i] + per[lf]
        elif isinstance(node, UnionNode):
            base[lf] = base[i - 1] = base[i]
    # Colors are relabeled to first-use order as they are written, through
    # one label per color of the root's range.  Labels and colors are
    # array('i')s, 4 bytes an entry with no int object per color.
    label = array("i", [-1]) * per[-1]
    k = i = 0
    colors = array("i", [0]) * tree.m
    for node, b, width in zip(order, base, per):
        if isinstance(node, TreeLeaf):
            raw = [b + c for c in _tree_leaf_coloring(node.t)]
        elif isinstance(node, CotreeLeaf):
            raw = range(b, b + node.m)
        elif isinstance(node, JoinNode):
            raw = range(b + width - node.left.n * node.right.n, b + width)
        else:
            continue
        for r in raw:
            if label[r] < 0:
                label[r] = k
                k += 1
            colors[i] = label[r]
            i += 1
    return StrongEdgeColoring(colors, k)
