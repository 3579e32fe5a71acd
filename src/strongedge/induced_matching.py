"""Maximum induced matching of tree-cographs over their decomposition tree.

An induced matching is a set of edges no two of which share a vertex or are
joined by an edge (an independent set in the squared linegraph).  Trees are
solved by a three-state dynamic program; tree complements contribute 1 as
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

_NEG = -(1 << 60)


@dataclass(frozen=True)
class InducedMatchingResult:
    """iv(G) together with a witness matching over global vertex ids."""

    value: int
    witness: tuple[tuple[int, int], ...]


def _tree_dp(t: Graph):
    """Bottom-up DP rooted at vertex 0.  Three states per vertex v:

    s0: v unmatched and all children unmatched (v may match to its parent);
    s1: v unmatched, children unconstrained;
    s2: v matched to one child, which must be in s0, its siblings unmatched.

    s1 >= s0 everywhere, so "child unmatched" always contributes s1(child).
    Returns (parent, s0, s1, s2, partner); answer is max(s1, s2) at the
    root.  Iterative, so million-vertex paths are fine.  t must be a tree;
    the caller checks.
    """
    n = t.n
    adj = t.adj
    order, parent = bfs_tree(t)
    s0 = [0] * n
    s1 = [0] * n
    s2 = [_NEG] * n
    partner = [-1] * n
    for i in range(n - 1, -1, -1):
        v = order[i]
        pv = parent[v]
        acc1 = 0
        accbest = 0
        bestdelta = _NEG
        best = -1
        for w in adj[v]:
            if w == pv:
                continue
            a = s1[w]
            b = s2[w]
            acc1 += a
            accbest += a if a >= b else b
            d = s0[w] - a
            if d > bestdelta:
                bestdelta = d
                best = w
        s0[v] = acc1
        s1[v] = accbest
        if best != -1:
            s2[v] = acc1 + 1 + bestdelta
            partner[v] = best
    return parent, s0, s1, s2, partner


def _im_tree(t: Graph) -> tuple[int, list[tuple[int, int]]]:
    """iv of a tree with a witness matching (local vertex pairs), O(n)."""
    parent, s0, s1, s2, partner = _tree_dp(t)
    value = max(s1[0], s2[0])
    pairs: list[tuple[int, int]] = []
    # Labels mirror the DP states; expand top-down.
    stack = [(0, 2 if s2[0] > s1[0] else 1)]
    while stack:
        v, label = stack.pop()
        pv = parent[v]
        if label == 1:
            for w in t.adj[v]:
                if w != pv:
                    stack.append((w, 2 if s2[w] > s1[w] else 1))
        elif label == 0:
            for w in t.adj[v]:
                if w != pv:
                    stack.append((w, 1))
        else:
            p = partner[v]
            pairs.append((v, p) if v < p else (p, v))
            for w in t.adj[v]:
                if w != pv:
                    stack.append((w, 0 if w == p else 1))
    return value, pairs


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
            value, local = _im_tree(node.t)
            acc.append((value, [(u + off, v + off) for u, v in local]))
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
