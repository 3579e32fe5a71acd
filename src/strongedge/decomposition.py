"""Decomposition trees for tree-cographs.

A decomposition tree is a rooted binary tree whose internal nodes are join
or union operations and whose leaves carry a tree t, representing either t
itself or the complement of t.  The complement is a label, never data: a
cotree leaf describes Theta(n^2) edges with an O(n) tree, which is what
makes the index computations linear.  `realize` materializes the graph for
verification and small instances only.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

from .graph import Graph, GraphError, build_graph, is_tree, nonedges

__all__ = [
    "DecompositionError",
    "TreeLeaf",
    "CotreeLeaf",
    "JoinNode",
    "UnionNode",
    "DecompositionTree",
    "parse_decomposition",
    "serialize_decomposition",
    "realize",
    "tree_from_prufer",
    "random_labeled_tree",
    "random_tree_cograph",
]


class DecompositionError(ValueError):
    """Raised for malformed or invalid decomposition documents."""


@dataclass(frozen=True, eq=False)
class _Leaf:
    """A leaf over the tree t; constructing one checks that t is a tree."""

    t: Graph

    def __post_init__(self):
        if not isinstance(self.t, Graph) or not is_tree(self.t):
            raise DecompositionError("leaf graph is not a tree")

    @property
    def n(self) -> int:
        return self.t.n


class TreeLeaf(_Leaf):
    """The tree t itself."""

    @property
    def m(self) -> int:
        return self.t.m


class CotreeLeaf(_Leaf):
    """The complement of t, a label never materialized here."""

    @property
    def m(self) -> int:
        # all pairs less the n - 1 tree edges
        n = self.t.n
        return n * (n - 1) // 2 - (n - 1)


@dataclass(frozen=True, eq=False)
class _Internal:
    """An operation over two subtrees; its n and m are set once, from the
    children's, when it is constructed."""

    left: "DecompNode"
    right: "DecompNode"
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        for child in (self.left, self.right):
            if not isinstance(child, _NODES):
                raise DecompositionError(f"not a decomposition node: {child!r}")
        m = self.left.m + self.right.m
        if isinstance(self, JoinNode):
            m += self.left.n * self.right.n
        object.__setattr__(self, "n", self.left.n + self.right.n)
        object.__setattr__(self, "m", m)


class JoinNode(_Internal):
    """Every vertex of the left subtree adjacent to every vertex of the right."""


class UnionNode(_Internal):
    """The disjoint union of the two subtrees."""


DecompNode = TreeLeaf | CotreeLeaf | JoinNode | UnionNode

_NODES = (_Leaf, _Internal)


class DecompositionTree:
    """A validated decomposition tree: its root and its nodes in post-order.

    ``order`` lists the nodes in post-order (left subtree, right subtree,
    node), so a bottom-up fold over the tree is one loop over it and a
    top-down pass one loop over ``reversed(order)``.  The walk that builds
    it is iterative because normalized k-ary inputs produce arbitrarily
    deep chains.
    """

    __slots__ = ("root", "order")

    def __init__(self, root: DecompNode):
        if not isinstance(root, _NODES):
            raise DecompositionError(f"not a decomposition node: {root!r}")
        # Visiting node, right subtree, left subtree and reversing the
        # visit gives the post-order.
        order: list[DecompNode] = []
        seen: set[int] = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                raise DecompositionError("node appears more than once in the tree")
            seen.add(id(node))
            if isinstance(node, _Internal):
                stack.append(node.left)
                stack.append(node.right)
            order.append(node)
        order.reverse()
        self.root = root
        self.order = order

    @property
    def n(self) -> int:
        return self.root.n

    @property
    def m(self) -> int:
        return self.root.m

    def placed(self) -> Iterator[tuple[DecompNode, int]]:
        """Yield ``(node, offset)`` in post-order, where ``offset`` is the
        first of the consecutive global vertex ids of the node's graph.

        Leaves take consecutive id blocks in the order visited, so left
        subtree ids precede right subtree ids: a node starts at the leaf
        total so far less its own n, and a join's right child at
        ``offset + node.left.n``.
        """
        total = 0
        for node in self.order:
            if isinstance(node, _Leaf):
                total += node.n
            yield node, total - node.n

    def __repr__(self) -> str:
        return f"DecompositionTree(n={self.n}, m={self.m})"


def parse_decomposition(text: str) -> DecompositionTree:
    """Parse the JSON wire format into a validated DecompositionTree.

    Leaves are `{"type":"tree"|"cotree","n":<int>,"edges":[[u,v],...]}`,
    internal nodes `{"type":"join"|"union","children":[...]}` with two or
    more children; extra children fold into a left-leaning binary chain
    (both operations are associative).
    """
    try:
        obj = json.loads(text)
    except RecursionError:
        raise DecompositionError("document nesting is too deep") from None
    except json.JSONDecodeError as exc:
        raise DecompositionError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return DecompositionTree(_node_from_obj(obj))


def _node_from_obj(obj, path: str = "$") -> DecompNode:
    results: list[DecompNode] = []
    stack: list[tuple[object, str, bool]] = [(obj, path, False)]
    while stack:
        o, p, done = stack.pop()
        if done:
            k = len(o["children"])
            children = results[len(results) - k :]
            del results[len(results) - k :]
            cls = JoinNode if o["type"] == "join" else UnionNode
            node: DecompNode = cls(children[0], children[1])
            for extra in children[2:]:
                node = cls(node, extra)
            results.append(node)
            continue
        if not isinstance(o, dict):
            raise DecompositionError(f"{p}: expected an object")
        kind = o.get("type")
        if kind in ("tree", "cotree"):
            results.append(_leaf_from_obj(o, p))
        elif kind in ("join", "union"):
            extra_keys = set(o) - {"type", "children"}
            if extra_keys:
                raise DecompositionError(f"{p}: unexpected keys {sorted(extra_keys)}")
            children = o.get("children")
            if not isinstance(children, list) or len(children) < 2:
                raise DecompositionError(
                    f"{p}: 'children' must be a list of at least two nodes"
                )
            stack.append((o, p, True))
            for i in range(len(children) - 1, -1, -1):
                stack.append((children[i], f"{p}.children[{i}]", False))
        elif kind is None:
            raise DecompositionError(f"{p}: missing 'type'")
        else:
            raise DecompositionError(f"{p}: unknown node type {kind!r}")
    return results[0]


def _plain_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _leaf_from_obj(obj: dict, path: str) -> DecompNode:
    extra = set(obj) - {"type", "n", "edges"}
    if extra:
        raise DecompositionError(f"{path}: unexpected keys {sorted(extra)}")
    n = obj.get("n")
    if not _plain_int(n) or n < 1:
        raise DecompositionError(f"{path}: 'n' must be a positive integer")
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise DecompositionError(f"{path}: 'edges' must be a list of pairs")
    pairs: list[tuple[int, int]] = []
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(map(_plain_int, e))):
            raise DecompositionError(f"{path}.edges[{i}]: expected a pair of integers")
        pairs.append((e[0], e[1]))
    # Checked before build_graph, which allocates n adjacency lists: an
    # edgeless leaf with a huge n is a few bytes of document.
    if len(pairs) != n - 1:
        raise DecompositionError(f"{path}: leaf graph is not a tree")
    try:
        t = build_graph(n, pairs)
        return TreeLeaf(t) if obj["type"] == "tree" else CotreeLeaf(t)
    except (GraphError, DecompositionError) as exc:
        raise DecompositionError(f"{path}: {exc}") from None


def serialize_decomposition(tree: DecompositionTree) -> str:
    """Canonical JSON with compact separators, in time linear in its length.

    A left-leaning chain of one operation is written as one flat children
    list, the inverse of the fold in `parse_decomposition`; right children
    stay nested.  Parsing the result gives back the same binary tree, so
    the realized edge order is unchanged, and a chain of any length nests
    one level deep.
    """
    out: list[str] = []
    stack: list[DecompNode | str] = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, _Leaf):
            kind = "tree" if isinstance(item, TreeLeaf) else "cotree"
            doc = {"type": kind, "n": item.t.n, "edges": [list(e) for e in item.t.edges]}
            out.append(json.dumps(doc, separators=(",", ":")))
        else:
            kind = "join" if isinstance(item, JoinNode) else "union"
            out.append(f'{{"type":"{kind}","children":[')
            stack.append("]}")
            node = item
            while type(node) is type(item):
                stack.append(node.right)
                stack.append(",")
                node = node.left
            stack.append(node)
    return "".join(out)


def realize(tree: DecompositionTree) -> Graph:
    """Materialize the represented graph on global vertex ids.

    Edge order is canonical and mirrored by the coloring construction:
    within any node, left-subtree edges, then right-subtree edges, then (for
    a join) the cross edges in lexicographic order.  Tree leaves keep their
    input edge order; cotree leaves list nonedges lexicographically.
    Quadratic in the output size, so verification-scale only.
    """
    edges: list[tuple[int, int]] = []
    for node, off in tree.placed():
        if isinstance(node, TreeLeaf):
            edges.extend((u + off, v + off) for u, v in node.t.edges)
        elif isinstance(node, CotreeLeaf):
            edges.extend((u + off, v + off) for u, v in nonedges(node.t))
        elif isinstance(node, JoinNode):
            mid = off + node.left.n
            for u in range(off, mid):
                for v in range(mid, off + node.n):
                    edges.append((u, v))
    return Graph(tree.n, edges)


def tree_from_prufer(n: int, seq: list[int]) -> Graph:
    """Decode a Prufer sequence of length n-2 into a labeled tree on n
    vertices.  Linear time via the moving-pointer decode."""
    if n < 1:
        raise GraphError(f"tree needs at least one vertex, got n={n}")
    if len(seq) != max(0, n - 2):
        raise GraphError(f"sequence length {len(seq)} != n-2 for n={n}")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    degree = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise GraphError(f"sequence entry {x} outside 0..{n - 1}")
        degree[x] += 1
    edges: list[tuple[int, int]] = []
    ptr = 0
    leaf = -1
    for x in seq:
        if leaf == -1:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = -1
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return Graph(n, edges)


def random_labeled_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree on n vertices."""
    if n <= 2:
        return tree_from_prufer(n, [])
    return tree_from_prufer(n, [rng.randrange(n) for _ in range(n - 2)])


def random_tree_cograph(
    seed: int, max_depth: int, max_leaf_size: int
) -> DecompositionTree:
    """Pseudo-random valid decomposition tree, deterministic per seed.

    Depth 0 forces a single leaf; otherwise each position is a leaf with
    fixed probability, an internal join/union node otherwise.  Leaf trees
    are uniform labeled trees of random size up to max_leaf_size.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if max_leaf_size < 1:
        raise ValueError(f"max_leaf_size must be >= 1, got {max_leaf_size}")
    rng = random.Random(seed)

    def gen(depth: int) -> DecompNode:
        if depth == 0 or rng.random() < 0.35:
            t = random_labeled_tree(rng.randint(1, max_leaf_size), rng)
            return TreeLeaf(t) if rng.random() < 0.5 else CotreeLeaf(t)
        cls = JoinNode if rng.random() < 0.5 else UnionNode
        left = gen(depth - 1)
        right = gen(depth - 1)
        return cls(left, right)

    return DecompositionTree(gen(max_depth))
