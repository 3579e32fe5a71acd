"""Decomposition trees for tree-cographs.

A decomposition tree is a rooted binary tree whose internal nodes are join
or union operations and whose leaves carry a tree t, representing either t
itself or the complement of t.  The complement is a label, never data: a
cotree leaf describes Theta(n^2) edges with an O(n) tree, which is what
makes the index computations linear.  `realize` materializes the graph for
the oracle and small instances only; `is_induced_matching_in` and
`is_strong_edge_coloring_in` check certificates on the decomposition itself.
"""

from __future__ import annotations

import json
import random
from array import array
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from operator import mul

from .graph import Graph, GraphError, bfs_tree, build_graph, clipped_repr, is_tree, nonedges

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
    top-down pass one loop over ``reversed(order)``.  Folds keep per-node
    values in lists by position: the node at i has its right child at
    i - 1 and its left child at ``left_pos[i]``, -1 at a leaf.  A node
    shared under a hand-built root takes a position per occurrence, so it
    stands for a repeated subtree; as every leaf has n >= 1, ``order`` has
    at most 2 * root.n - 1 entries.  The walk is iterative because
    normalized k-ary inputs produce arbitrarily deep chains.
    """

    __slots__ = ("root", "order", "left_pos")

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
        # an array: a list would keep an int object per position
        left_pos = array("q", [-1]) * len(order)
        done: list[int] = []  # positions of subtrees not yet given a parent
        for i, node in enumerate(order):
            if isinstance(node, _Internal):
                left_pos[i] = done[-2]
                del done[-2:]
            done.append(i)
        self.root = root
        self.order = order
        self.left_pos = left_pos

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
    except ValueError:  # an integer past the interpreter's digit limit
        raise DecompositionError("invalid JSON: an integer is too long") from None
    return DecompositionTree(_node_from_obj(obj))


def _node_from_obj(obj) -> DecompNode:
    # Each child is popped off its parent's children list as it is pushed,
    # and an internal node's entry keeps only its class and child count,
    # so every JSON node is freed once it is converted: the document
    # shrinks as the tree grows.  An entry is (object, i, 0) for a node to
    # convert, i its index among its parent's children (-1 at the root), or
    # (JoinNode or UnionNode, i, k) for one whose k converted children are
    # the last k results.  The entries with a k are the ancestors of the
    # node at hand, so an error's JSON path is built from their indices.
    results: list[DecompNode] = []
    stack: list[tuple] = [(obj, -1, 0)]
    try:
        while stack:
            o, i, k = stack.pop()
            if k:
                children = results[len(results) - k :]
                del results[len(results) - k :]
                node: DecompNode = o(children[0], children[1])
                for extra in children[2:]:
                    node = o(node, extra)
                results.append(node)
                continue
            if not isinstance(o, dict):
                raise DecompositionError("expected an object")
            kind = o.get("type")
            if kind in ("tree", "cotree"):
                results.append(_leaf_from_obj(o))
            elif kind in ("join", "union"):
                extra_keys = set(o) - {"type", "children"}
                if extra_keys:
                    raise _unexpected_keys(extra_keys)
                children = o.get("children")
                if not isinstance(children, list) or len(children) < 2:
                    raise DecompositionError(
                        "'children' must be a list of at least two nodes"
                    )
                stack.append((JoinNode if kind == "join" else UnionNode, i, len(children)))
                for j in range(len(children) - 1, -1, -1):
                    stack.append((children.pop(), j, 0))
            elif kind is None:
                raise DecompositionError("missing 'type'")
            else:
                raise DecompositionError(f"unknown node type {clipped_repr(kind)}")
    except DecompositionError as exc:
        # the message is about the node, or about a part of it if it starts
        # with "."; a path that would push the CLI's "error: " line past 200
        # bytes is cut in the middle
        message = str(exc) if str(exc).startswith(".") else f": {exc}"
        indices = [j for _, j, k in stack if k] + [i]
        path = "$" + "".join(f".children[{j}]" for j in indices if j >= 0)
        room = max(192 - len(message.encode()), 5)
        if len(path) > room:
            half = (room - 3) // 2
            path = path[:half] + "..." + path[-half:]
        raise DecompositionError(path + message) from None
    return results[0]


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
    # Checked before any graph is built, which allocates n adjacency
    # lists: an edgeless leaf with a huge n is a few bytes of document.
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
    in time and memory linear in the tree and the pairs.

    The endpoints must be distinct and in range, and each endpoint must
    have exactly one neighbour among the endpoints: its partner.  A
    vertex's neighbours outside its leaf are the vertices across each join
    above it, so one pass up counts each node's endpoints and keeps one of
    them, and one pass down sums, per node, the endpoints joined to it from
    outside and keeps one.  Within a leaf, an endpoint's neighbours among
    the endpoints are its tree neighbours, or the leaf's other endpoints
    less those in a cotree leaf.  Per-node values are lists by post-order
    position (see `DecompositionTree`), so a shared node counts per place.
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
    order, left = tree.order, tree.left_pos
    size = len(order)
    count = [0] * size  # endpoints in the node's graph
    some = [-1] * size  # one of them, or -1
    offset = [0] * size
    for i, (node, off) in enumerate(tree.placed()):
        offset[i] = off
        if isinstance(node, _Leaf):
            for x in range(off, off + node.n):
                if partner[x] != -1:
                    count[i] += 1
                    some[i] = x
        else:
            lf = left[i]
            count[i] = count[lf] + count[i - 1]
            some[i] = some[lf] if some[lf] != -1 else some[i - 1]
    joined = [0] * size  # endpoints joined to the node from outside it
    via = [-1] * size  # one of them, or -1
    for i in range(size - 1, -1, -1):
        node = order[i]
        if isinstance(node, _Internal):
            for child, other in ((left[i], i - 1), (i - 1, left[i])):
                joined[child] = joined[i]
                via[child] = via[i]
                if isinstance(node, JoinNode) and count[other]:
                    joined[child] += count[other]
                    via[child] = some[other]
            continue
        if not count[i]:
            continue
        off = offset[i]
        ends = [x - off for x in range(off, off + node.n) if partner[x] != -1]
        cotree = isinstance(node, CotreeLeaf)
        for x in ends:
            near = [w for w in node.t.adj[x] if partner[w + off] != -1]
            inside = len(ends) - 1 - len(near) if cotree else len(near)
            if inside + joined[i] != 1:
                return False
            if joined[i]:
                y = via[i]
            elif cotree:
                skip = {x, *near}
                y = next(w for w in ends if w not in skip) + off
            else:
                y = near[0] + off
            if partner[x + off] != y:
                return False
    return True


def is_strong_edge_coloring_in(tree: DecompositionTree, coloring) -> bool:
    """True iff ``coloring``, by edge index in `DecompositionTree.edges`
    order, is a strong edge coloring of the graph the tree represents: the
    verdict `is_strong_edge_coloring` gives on `realize(tree)`, with no
    `Graph`, no list of edges and no set per vertex kept.

    With C(x) the colors at vertex x, a coloring is strong iff the colors
    at each vertex are distinct and the edges xy have |C(x) & C(y)| = 1
    each, their own color, so sum m together.  That sum is the sum over
    colors c of the edges induced by the class's endpoints, and it splits
    over the tree: inside a leaf, the colors shared along its tree edges,
    or for a cotree leaf the sum over c of C(s_c, 2) less those, where s_c
    counts the leaf's vertices with color c; at a join, the sum over c of
    s_c(left) * s_c(right).  The counts s_c are kept only for the subtrees
    below a join, and merged small into large up to it.  Memory is the
    colors at each vertex, 2m references to one int object per color, and
    the counts.
    """
    colors = coloring.colors
    if len(colors) != tree.m:
        raise GraphError(f"coloring has {len(colors)} entries for {tree.m} edges")
    at: list[list[int]] = [[] for _ in range(tree.n)]
    for (u, v), c in zip(tree.edges(), coloring.interned()):
        at[u].append(c)
        at[v].append(c)
    if sum(map(len, map(set, at))) != 2 * tree.m:
        return False  # a color repeats at some vertex
    order, left = tree.order, tree.left_pos
    below_join = bytearray(len(order))
    for i in range(len(order) - 1, -1, -1):
        if isinstance(order[i], _Internal):
            below_join[left[i]] = below_join[i - 1] = (
                below_join[i] or isinstance(order[i], JoinNode)
            )
    shared = 0  # sum over the edges xy of |C(x) & C(y)|
    counts: list[Counter | None] = []  # s_c of each subtree not yet given a parent
    for i, (node, off) in enumerate(tree.placed()):
        if isinstance(node, _Internal):
            small, large = counts.pop(), counts.pop()
            if below_join[i - 1]:  # so are both children, which have counts
                if len(small) > len(large):
                    small, large = large, small
                if isinstance(node, JoinNode):
                    across = map(large.get, small, repeat(0))
                    shared += sum(map(mul, small.values(), across))
                if below_join[i]:
                    large.update(small)
            counts.append(large if below_join[i] else None)
            continue
        here = at[off : off + node.n]
        inside = 0  # colors shared along the leaf's tree edges
        tree_order, parent = bfs_tree(node.t)
        # the search lists the children of each vertex together
        for p, kids in groupby(tree_order[1:], parent.__getitem__):
            have = set(here[p])
            below = chain.from_iterable(map(here.__getitem__, kids))
            inside += sum(map(have.__contains__, below))
        count = None
        if below_join[i] or isinstance(node, CotreeLeaf):
            count = Counter(chain.from_iterable(here))
        if isinstance(node, CotreeLeaf):
            s_c = count.values()
            inside = (sum(map(mul, s_c, s_c)) - sum(s_c)) // 2 - inside
        shared += inside
        counts.append(count if below_join[i] else None)
    return shared == tree.m


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
