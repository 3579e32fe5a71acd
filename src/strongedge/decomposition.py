"""Decomposition trees for tree-cographs.

A decomposition tree is a rooted binary tree whose internal nodes are join
or union operations and whose leaves carry a tree t, representing either t
itself or the complement of t.  The complement is a label, never data: a
cotree leaf describes Theta(n^2) edges with an O(n) tree, which is what
makes the index computations linear.  `realize` materializes the graph for
the oracle and small instances only; `is_induced_matching_in` and
`is_strong_edge_coloring_in` check certificates on the decomposition itself.
Both rest on one fact: a join makes every vertex on one side a neighbour
of every vertex on the other, and no edge crosses a union.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice

from .graph import (
    Graph,
    GraphError,
    _is_strong,
    adjacency,
    build_graph,
    clipped_repr,
    is_tree,
    nonedges,
)

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
    "is_induced_matching_in",
    "is_strong_edge_coloring_in",
    "tree_from_prufer",
    "random_labeled_tree",
    "random_tree_cograph",
]


class DecompositionError(ValueError):
    """Raised for malformed or invalid decomposition documents."""


@dataclass(frozen=True, eq=False, slots=True)
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

    __slots__ = ()

    @property
    def m(self) -> int:
        return self.t.m


class CotreeLeaf(_Leaf):
    """The complement of t, a label never materialized here."""

    __slots__ = ()

    @property
    def m(self) -> int:
        # all pairs less the n - 1 tree edges
        n = self.t.n
        return n * (n - 1) // 2 - (n - 1)


@dataclass(frozen=True, eq=False, slots=True)
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

    __slots__ = ()


class UnionNode(_Internal):
    """The disjoint union of the two subtrees."""

    __slots__ = ()


DecompNode = TreeLeaf | CotreeLeaf | JoinNode | UnionNode

_NODES = (_Leaf, _Internal)


class DecompositionTree:
    """A validated decomposition tree: its root and its nodes in post-order.

    ``order`` lists the nodes in post-order (left subtree, right subtree,
    node), so a bottom-up fold over the tree is one loop over it and a
    top-down pass one loop over ``reversed(order)``.  A fold keeps a stack
    of the values of the subtrees not yet given a parent: an internal node
    pops its right child's value, then its left child's, and pushes its
    own.  A top-down pass keeps the stack the other way round: a node pops
    what its parent handed it and pushes its left child's share, then its
    right child's, which the next node in ``reversed(order)`` pops.  A
    node shared under a hand-built root takes a position per occurrence,
    so it stands for a repeated subtree; as every leaf has n >= 1,
    ``order`` has at most 2 * root.n - 1 entries.  The walk is iterative
    because normalized k-ary inputs produce arbitrarily deep chains.
    """

    __slots__ = ("root", "order")

    def __init__(self, root: DecompNode):
        if not isinstance(root, _NODES):
            raise DecompositionError(f"not a decomposition node: {root!r}")
        # Visiting node, right subtree, left subtree and reversing the
        # visit gives the post-order.
        order: list[DecompNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
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

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield the edges of the represented graph on global vertex ids,
        u < v, in the canonical order that `realize` lists and
        `strong_coloring` colors.

        Within any node: left-subtree edges, then right-subtree edges, then
        (for a join) the cross edges in lexicographic order.  Tree leaves
        keep their input edge order; cotree leaves list nonedges
        lexicographically.
        """
        for node, off in self.placed():
            if isinstance(node, TreeLeaf):
                for u, v in node.t.edges:
                    yield u + off, v + off
            elif isinstance(node, CotreeLeaf):
                for u, v in nonedges(node.t):
                    yield u + off, v + off
            elif isinstance(node, JoinNode):
                mid, end = off + node.left.n, off + node.n
                for u in range(off, mid):
                    for v in range(mid, end):
                        yield u, v

    def __repr__(self) -> str:
        return f"DecompositionTree(n={self.n}, m={self.m})"


def parse_decomposition(text: str) -> DecompositionTree:
    """Parse the JSON wire format into a validated DecompositionTree.

    Leaves are `{"type":"tree"|"cotree","n":<int>,"edges":[[u,v],...]}`,
    internal nodes `{"type":"join"|"union","children":[...]}` with two or
    more children; extra children fold into a left-leaning binary chain
    (both operations are associative).  Each JSON object is converted by
    `_node_from_obj` as `json.loads` closes it, so the JSON of a node is
    freed as soon as the node is built and the whole document never exists
    as Python objects.
    """
    try:
        root = json.loads(text, object_hook=_node_from_obj)
    except RecursionError:
        raise DecompositionError("document nesting is too deep") from None
    except json.JSONDecodeError as exc:
        raise DecompositionError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise DecompositionError("invalid JSON: an integer is too long") from None
    if not isinstance(root, _NODES):
        if not isinstance(root, _Rejected):
            root = _Rejected("expected an object", [])
        raise DecompositionError(root.error())
    return DecompositionTree(root)


@dataclass(eq=False, slots=True)
class _Rejected:
    """What `_node_from_obj` returns for an object it rejects: the message,
    and the child indices on the way down to the object, which each parent
    adds as it closes.  Only a rejection met where a node belongs becomes
    the document's error; in any other place it is a value like any other,
    as a converted node is."""

    message: str
    indices: list[int]

    def error(self) -> str:
        """The message after the object's JSON path.  The message is about
        the object, or about a part of it if it starts with "."; a path that
        would push the CLI's "error: " line past 200 bytes is cut in the
        middle."""
        message = self.message if self.message.startswith(".") else f": {self.message}"
        path = "$" + "".join(f".children[{j}]" for j in reversed(self.indices))
        room = max(192 - len(message.encode()), 5)
        if len(path) > room:
            half = (room - 3) // 2
            path = path[:half] + "..." + path[-half:]
        return path + message


def _node_from_obj(obj: dict) -> DecompNode | _Rejected:
    """The object hook of `parse_decomposition`: the node of a JSON object
    whose children have already been converted, or a `_Rejected`.  A node's
    own faults come before its children's, and a child's before those of
    the children right of it, as in a walk of the document in pre-order."""
    kind = obj.get("type")
    try:
        if kind in ("tree", "cotree"):
            return _leaf_from_obj(obj)
        if kind not in ("join", "union"):
            if kind is None:
                raise DecompositionError("missing 'type'")
            if _holds_object(kind):
                # the object was converted already and cannot be quoted
                raise DecompositionError(
                    "'type' holds an object; it must be 'tree', 'cotree', 'join' or 'union'"
                )
            raise DecompositionError(f"unknown node type {clipped_repr(kind)}")
        extra_keys = set(obj) - {"type", "children"}
        if extra_keys:
            raise _unexpected_keys(extra_keys)
        children = obj.get("children")
        if not isinstance(children, list) or len(children) < 2:
            raise DecompositionError("'children' must be a list of at least two nodes")
    except DecompositionError as exc:
        return _Rejected(str(exc), [])
    for j, child in enumerate(children):
        if not isinstance(child, _NODES):
            if not isinstance(child, _Rejected):
                child = _Rejected("expected an object", [])
            child.indices.append(j)
            return child
    op = JoinNode if kind == "join" else UnionNode
    node = op(children[0], children[1])
    for extra in children[2:]:
        node = op(node, extra)
    return node


def _holds_object(value) -> bool:
    """True iff the JSON value is an object or a list holding one at any
    depth, seen as `_node_from_obj` converted them."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, (*_NODES, _Rejected)):
            return True
    return False


def _unexpected_keys(extra: set) -> DecompositionError:
    """The error naming a node's unexpected keys; a long list is cut short
    and given with its count."""
    shown = clipped_repr(sorted(extra))
    if shown.endswith("..."):
        shown += f" ({len(extra)} keys)"
    return DecompositionError(f"unexpected keys {shown}")


def _leaf_from_obj(obj: dict) -> DecompNode:
    """Read a leaf in one pass over its pairs.  JSON has no int subclass
    but bool, so ``type(x) is int`` is the integer check.  n - 1 pairs in
    range that connect n vertices contain no loop and no repeat, so the
    leaf's tree check covers both and the accepted path needs no duplicate
    set.  A rejected leaf is read again by `build_graph`, whose error names
    the first bad pair.  Its errors leave out the leaf's JSON path."""
    extra = set(obj) - {"type", "n", "edges"}
    if extra:
        raise _unexpected_keys(extra)
    n = obj.get("n")
    if type(n) is not int or n < 1:
        raise DecompositionError("'n' must be a positive integer")
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise DecompositionError("'edges' must be a list of pairs")
    pairs: list[tuple[int, int]] = []
    in_range = True
    for i, e in enumerate(edges):
        if not (type(e) is list and len(e) == 2
                and type(e[0]) is int and type(e[1]) is int):
            raise DecompositionError(f".edges[{i}]: expected a pair of integers")
        u, v = e
        if u > v:
            u, v = v, u
        if u < 0 or v >= n:
            in_range = False
        pairs.append((u, v))
    # Checked before the tree check, which allocates n union-find entries
    # (and `build_graph` would): an edgeless leaf with a huge n is a few
    # bytes of document.
    if len(pairs) != n - 1:
        raise DecompositionError("leaf graph is not a tree")
    leaf = TreeLeaf if obj["type"] == "tree" else CotreeLeaf
    if in_range:
        try:
            return leaf(Graph(n, pairs))
        except DecompositionError:
            pass
    try:
        build_graph(n, edges)
    except GraphError as exc:
        raise DecompositionError(str(exc)) from None
    raise DecompositionError("leaf graph is not a tree")


def serialize_decomposition(tree: DecompositionTree) -> str:
    """Canonical JSON with compact separators, in time linear in its length.

    A left-leaning chain of one operation is written as one flat children
    list, the inverse of the fold in `parse_decomposition`; right children
    stay nested.  Parsing the result gives back the same binary tree, so
    the realized edge order is unchanged.  A left-leaning chain of any
    length nests one level deep, but every right child nests one level
    more: a right-leaning chain about 500 levels deep gives a document that
    `parse_decomposition` rejects as nested too deep.
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
    """Materialize the represented graph on global vertex ids, with its
    edges in the canonical order of `DecompositionTree.edges`.  Quadratic
    in the output size, so for the oracle and small instances only."""
    return Graph(tree.n, list(tree.edges()))


def is_induced_matching_in(tree: DecompositionTree, pairs) -> bool:
    """True iff ``pairs`` is an induced matching of the graph the tree
    represents, the verdict `is_induced_matching` gives on `realize(tree)`,
    in one bottom-up pass that keeps a partner per vertex and a stack as
    deep as the tree.

    The endpoints must be distinct and in range, and each endpoint must
    have exactly one neighbour among the endpoints: its partner.  A join
    makes every endpoint on one side a neighbour of every endpoint on the
    other, so where both sides hold endpoints each must hold exactly one,
    and the two must be partners.  Within a leaf, an endpoint's neighbours
    among the endpoints are its tree neighbours, or the leaf's other
    endpoints less those in a cotree leaf, and may only be its partner.
    An endpoint that met its partner shares a subtree with it, which any
    join above with endpoints on its other side rejects, so each endpoint
    is counted at most once, and the pairs are induced iff all were.
    """
    n = tree.n
    partner = [-1] * n
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return False
        if partner[u] != -1 or partner[v] != -1:
            return False
        partner[u] = v
        partner[v] = u
    met = 0  # endpoints seen next to their partner
    # the endpoint count and one endpoint of each subtree not yet given a parent
    stack: list[tuple[int, int]] = []
    for node, off in tree.placed():
        if isinstance(node, _Internal):
            right, r_end = stack.pop()
            left, l_end = stack.pop()
            if left and right and isinstance(node, JoinNode):
                if left != 1 or right != 1 or partner[l_end] != r_end:
                    return False
                met += 2
            stack.append((left + right, l_end if left else r_end))
            continue
        ends = [x - off for x in range(off, off + node.n) if partner[x] != -1]
        stack.append((len(ends), ends[0] + off if ends else -1))
        if not ends:
            continue
        cotree = isinstance(node, CotreeLeaf)
        adj = adjacency(node.t)
        for x in ends:
            near = [w for w in adj[x] if partner[w + off] != -1]
            inside = len(ends) - 1 - len(near) if cotree else len(near)
            if inside > 1:
                return False
            if inside:
                if cotree:
                    skip = {x, *near}
                    y = next(w for w in ends if w not in skip)
                else:
                    y = near[0]
                if partner[x + off] != y + off:
                    return False
                met += 1
    return met == n - partner.count(-1)


def is_strong_edge_coloring_in(tree: DecompositionTree, coloring) -> bool:
    """True iff ``coloring``, by edge index in `DecompositionTree.edges`
    order, is a strong edge coloring of the graph the tree represents: the
    verdict `is_strong_edge_coloring` gives on `realize(tree)`, with no
    `Graph` and no list of edges built.

    Two edges conflict, sharing a vertex or joined by an edge, according
    to the graph of the lowest node holding both, which their endpoints
    induce.  In a cotree leaf they always do: disjoint edges ab and cd of
    the complement with no edge between them would make a-c-b-d-a a cycle
    of the tree.  So do any two across a join, and none across a union.
    The coloring is thus strong iff each tree leaf's colors are strong on
    its tree, each cotree leaf's colors are distinct, and at each join the
    colors of the left subtree, of the right subtree and of the cross
    edges are disjoint, with the cross colors distinct.  One post-order
    pass reads the colors a node's block at a time, as `edges` lists them,
    and keeps the color set of each subtree below a join, merged small
    into large up to it.
    """
    colors = coloring.colors
    if len(colors) != tree.m:
        raise GraphError(f"coloring has {len(colors)} entries for {tree.m} edges")
    order = tree.order
    below_join = bytearray(len(order))
    flags = [False]  # handed down to the nodes still to come, the next on top
    for i in range(len(order) - 1, -1, -1):
        flag = below_join[i] = flags.pop()
        if isinstance(order[i], _Internal):
            flag = flag or isinstance(order[i], JoinNode)
            flags += (flag, flag)
    unread = coloring.interned()  # taken a node's block at a time
    sets: list[set | None] = []  # of each subtree not yet given a parent
    for i, node in enumerate(order):
        if isinstance(node, _Leaf):
            here = islice(unread, node.m)
            if below_join[i]:
                here = list(here)  # read twice: for the rule and for the set
            if isinstance(node, CotreeLeaf):
                if len(set(here)) != node.m:
                    return False
            elif not _is_strong(node.t, here):
                return False
            sets.append(set(here) if below_join[i] else None)
            continue
        small, large = sets.pop(), sets.pop()
        if large is None:  # and so is small: no join above this union
            sets.append(None)
            continue
        if len(small) > len(large):
            small, large = large, small
        size = len(small) + len(large)
        large |= small
        if isinstance(node, JoinNode):
            cross = node.left.n * node.right.n
            large.update(islice(unread, cross))
            if len(large) != size + cross:
                return False
        sets.append(large if below_join[i] else None)
    return True


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


# Each position is internal with probability 0.65 and then has two
# children, so a tree that survives grows about 1.3x per level: unchecked,
# depth 60 can mean billions of nodes.  Generation stops past this many.
_GEN_NODE_CAP = 50_000
# The node cap does not bound the leaves' sizes: one --leaf-size 10**9 leaf
# alone would draw a Pruefer sequence of that length.  Generation stops
# before a leaf takes the total past this many vertices.
_GEN_VERTEX_CAP = 1_000_000


def random_tree_cograph(
    seed: int, max_depth: int, max_leaf_size: int
) -> DecompositionTree:
    """Pseudo-random valid decomposition tree, deterministic per seed.

    Depth 0 forces a single leaf; otherwise each position is a leaf with
    fixed probability, an internal join/union node otherwise.  Leaf trees
    are uniform labeled trees of random size up to max_leaf_size.
    Positions are drawn in pre-order (node, left subtree, right subtree)
    by an explicit stack; a tree that would pass _GEN_NODE_CAP nodes or
    _GEN_VERTEX_CAP vertices raises ValueError.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if max_leaf_size < 1:
        raise ValueError(f"max_leaf_size must be >= 1, got {max_leaf_size}")
    rng = random.Random(seed)
    results: list[DecompNode] = []
    # An entry is a depth still to draw, or the class of an internal
    # node whose two subtrees are the last two results.
    stack: list = [max_depth]
    nodes = vertices = 0
    while stack:
        item = stack.pop()
        if not isinstance(item, int):
            right = results.pop()
            results.append(item(results.pop(), right))
            continue
        nodes += 1
        if nodes > _GEN_NODE_CAP:
            raise ValueError(f"the generated tree passes {_GEN_NODE_CAP} nodes")
        if item == 0 or rng.random() < 0.35:
            size = rng.randint(1, max_leaf_size)
            vertices += size
            if vertices > _GEN_VERTEX_CAP:
                raise ValueError(
                    f"the generated tree passes {_GEN_VERTEX_CAP} vertices"
                )
            t = random_labeled_tree(size, rng)
            results.append(TreeLeaf(t) if rng.random() < 0.5 else CotreeLeaf(t))
        else:
            stack.append(JoinNode if rng.random() < 0.5 else UnionNode)
            stack.append(item - 1)
            stack.append(item - 1)
    return DecompositionTree(results[0])
