"""Maximum induced matching of tree-cographs over their decomposition tree.

An induced matching is a set of edges no two of which share a vertex or are
joined by an edge (an independent set in the squared linegraph).  Trees are
solved by one greedy pass up from the leaves; tree complements contribute 1 as
soon as they have any edge at all (their squared linegraph is a clique);
unions add, joins take the maximum of the children and 1 (any two matched
edges on opposite sides of a join conflict through the cross edges, and a
single cross edge is always available).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .decomposition import CotreeLeaf, DecompositionTree, TreeLeaf, UnionNode
from .graph import Graph, bfs_tree, nonedges

__all__ = ["InducedMatchingResult", "im"]

@dataclass(frozen=True)
class InducedMatchingResult:
    """iv(G) together with a witness matching over global vertex ids."""

    value: int
    witness: tuple[tuple[int, int], ...]


def _im_tree(t: Graph) -> list[tuple[int, int]]:
    """A maximum induced matching of a tree (local vertex pairs, top-down),
    by the greedy of Fricke and Laskar (1992, "Strong matchings on trees").

    The vertices but the root are visited bottom-up (reversed BFS order);
    whenever v and its parent p are both still free, vp is taken and p and
    all of N(p) stop being free.  Every edge that meets vp has an endpoint
    in N[p] (v's children are already done), so what is taken stays
    induced.  It is also maximum: when v is reached with p free, v and p's
    other free children are leaves of what is left (the tree on the free
    vertices), so a maximum induced matching of what is left has at most
    one edge touching p or p's parent, and that edge can be swapped for
    vp.  Each p is taken at most once, so the pass is O(n).  t must be a
    tree; the caller checks.
    """
    order, parent = bfs_tree(t)
    free = [True] * t.n
    pairs: list[tuple[int, int]] = []
    for v in order[:0:-1]:
        p = parent[v]
        if free[v] and free[p]:
            pairs.append((v, p) if v < p else (p, v))
            free[p] = False
            for w in t.adj[p]:
                free[w] = False
    pairs.reverse()
    return pairs


def im(tree: DecompositionTree) -> InducedMatchingResult:
    """iv of the represented graph with a witness over global vertex ids.

    Join tie-break is fixed: prefer the left child's witness, then the
    right child's, then the lexicographically first cross edge.  A union
    pairs its children's witnesses instead of concatenating them, and one
    pass at the end flattens the pairs left to right, so the fold is
    linear whatever the tree's shape.
    """
    acc: list[tuple[int, list | tuple]] = []
    for node, off in tree.placed():
        if isinstance(node, TreeLeaf):
            witness = [(u + off, v + off) for u, v in _im_tree(node.t)]
            acc.append((len(witness), witness))
        elif isinstance(node, CotreeLeaf):
            # t's first nonedge, if it has one, is an edge of the complement
            witness = [(u + off, v + off) for u, v in islice(nonedges(node.t), 1)]
            acc.append((len(witness), witness))
        else:
            rv, rw = acc.pop()
            lv, lw = acc.pop()
            if isinstance(node, UnionNode):
                acc.append((lv + rv, (lw, rw)))
            elif lv >= max(rv, 1):
                acc.append((lv, lw))
            elif rv >= 1:
                acc.append((rv, rw))
            else:
                acc.append((1, [(off, off + node.left.n)]))
    value, parts = acc.pop()
    witness: list[tuple[int, int]] = []
    stack = [parts]
    while stack:
        part = stack.pop()
        if isinstance(part, tuple):
            stack.append(part[1])
            stack.append(part[0])
        else:
            witness.extend(part)
    return InducedMatchingResult(value, tuple(witness))
