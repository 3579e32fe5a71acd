"""Seeded input generators for the four benchmark workloads.

A tree-cograph is described here as nested tuples, independent of the
program's node classes:

    ("tree", n, edges) | ("cotree", n, edges)       leaves, edges local
    ("union", [child, ...]) | ("join", [child, ...])  k-ary internal nodes

`cograph_document` turns a description into the program's JSON wire
format; `check.py` computes the reference answers from the same
description.  A permutation is a list of the integers 0..n-1.
"""

from __future__ import annotations

import json
import random


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random recursive tree on shuffled labels, edges in shuffled order."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [(labels[i], labels[rng.randrange(i)]) for i in range(1, n)]
    rng.shuffle(edges)
    return edges


def spider(legs: int, length: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A centre with `legs` paths of `length` edges each (a star when
    length is 1), on shuffled labels.  Returns (n, edges)."""
    n = 1 + legs * length
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((labels[prev], labels[nxt]))
            prev = nxt
            nxt += 1
    rng.shuffle(edges)
    return n, edges


def _small_leaf(rng: random.Random) -> tuple:
    n = rng.randint(1, 8)
    kind = "cotree" if n >= 4 and rng.random() < 0.1 else "tree"
    return (kind, n, random_tree(n, rng))


def cograph_deep(rng: random.Random, children: int = 4_000) -> tuple:
    """One flat union of `children` small leaves; about one child in fifty
    is a join of two small leaves instead.  The child count is fixed, so
    the binary chain the program folds the list into is always
    `children - 1` unions deep."""
    kids = []
    for _ in range(children):
        if rng.random() < 0.02:
            kids.append(("join", [_small_leaf(rng), _small_leaf(rng)]))
        else:
            kids.append(_small_leaf(rng))
    return ("union", kids)


def cograph_hubs(rng: random.Random) -> tuple:
    """A shallow union of high-degree stars and spiders; two of them are
    joined with a small cotree, which widens the palette to about 1,660
    colors.  Sizes vary by at most 1%, so that the work per
    document, which grows with the square of the degrees, stays steady."""
    kids = []
    for legs, length in [(300, 1)] * 2 + [(150, 2)]:
        n, edges = spider(legs + rng.randint(-3, 3), length, rng)
        kids.append(("tree", n, edges))
    for length in (1, 2):
        n, edges = spider(150 + rng.randint(-1, 1), length, rng)
        kids.append(("join", [("tree", n, edges), ("cotree", 5, random_tree(5, rng))]))
    rng.shuffle(kids)
    return ("union", kids)


def _leaf_obj(desc: tuple) -> dict:
    kind, n, edges = desc
    return {"type": kind, "n": n, "edges": [list(e) for e in edges]}


def cograph_document(desc: tuple) -> str:
    """The wire format the `sci` and `im` commands read."""

    def obj(d):
        if d[0] in ("tree", "cotree"):
            return _leaf_obj(d)
        return {"type": d[0], "children": [obj(c) for c in d[1]]}

    return json.dumps(obj(desc), separators=(",", ":"))


def perm_dense(rng: random.Random, n: int = 200) -> list[int]:
    """Uniformly random permutation."""
    pi = list(range(n))
    rng.shuffle(pi)
    return pi


def perm_sparse(rng: random.Random, n: int = 2000) -> list[int]:
    """Identity with random local swaps: each position is swapped with a
    partner at most three places on with probability one half."""
    pi = list(range(n))
    for i in range(n - 3):
        if rng.random() < 0.5:
            j = i + rng.randint(1, 3)
            pi[i], pi[j] = pi[j], pi[i]
    return pi


def perm_document(pi: list[int]) -> str:
    """The one-line format the `perm` command reads."""
    return " ".join(map(str, pi)) + "\n"
