import itertools
import random

import pytest
from hypothesis import given

from strongedge import (
    CotreeLeaf,
    DecompositionError,
    DecompositionTree,
    JoinNode,
    TreeLeaf,
    UnionNode,
    build_graph,
    exact_max_independent_set,
    im,
    is_induced_matching,
    parse_decomposition,
    random_labeled_tree,
    realize,
    square_of_linegraph,
    tree_from_prufer,
)

from strategies import decomposition_trees, trees

P5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
K2_LEAF = '{"type":"tree","n":2,"edges":[[0,1]]}'
P5_LEAF = '{"type":"tree","n":5,"edges":[[0,1],[1,2],[2,3],[3,4]]}'


def leaf(t):
    return DecompositionTree(TreeLeaf(t))


def test_im_tree_examples():
    res = im(leaf(build_graph(2, [(0, 1)])))
    assert res.value == 1 and res.witness == ((0, 1),)

    res = im(leaf(P5))
    # the only maximum induced matching of P5 is its first and last edge
    assert res.value == 2 and sorted(res.witness) == [(0, 1), (3, 4)]

    star = build_graph(6, [(0, i) for i in range(1, 6)])
    assert im(leaf(star)).value == 1

    res = im(leaf(build_graph(1, [])))
    assert res.value == 0 and res.witness == ()


def test_im_tree_rejects_non_trees():
    with pytest.raises(DecompositionError, match="not a tree"):
        TreeLeaf(build_graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_im_examples():
    two_paths = parse_decomposition(
        f'{{"type":"union","children":[{P5_LEAF},{P5_LEAF}]}}'
    )
    res = im(two_paths)
    # the README's example, witness read top-down in each leaf
    assert res.value == 4 and res.witness == ((0, 1), (3, 4), (5, 6), (8, 9))
    assert is_induced_matching(realize(two_paths), list(res.witness))

    k4 = parse_decomposition(f'{{"type":"join","children":[{K2_LEAF},{K2_LEAF}]}}')
    assert im(k4).value == 1

    assert im(parse_decomposition('{"type":"cotree","n":2,"edges":[[0,1]]}')).value == 0
    assert im(parse_decomposition('{"type":"tree","n":1,"edges":[]}')) .witness == ()


def test_cotree_leaf_witness_is_the_smallest_nonedge():
    res = im(parse_decomposition('{"type":"cotree","n":4,"edges":[[0,1],[1,2],[2,3]]}'))
    assert res.value == 1 and res.witness == ((0, 2),)
    # star underneath: vertex 0 sees everyone, so the nonedge is (1, 2)
    star = im(parse_decomposition('{"type":"cotree","n":4,"edges":[[0,1],[0,2],[0,3]]}'))
    assert star.value == 1 and star.witness == ((1, 2),)
    # every labeled tree with 3 <= n <= 7
    for n in range(3, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            t = tree_from_prufer(n, list(seq))
            present = set(t.edges)
            first = next(
                pair for pair in itertools.combinations(range(n), 2) if pair not in present
            )
            res = im(DecompositionTree(CotreeLeaf(t)))
            assert res.value == 1 and res.witness == (first,), (t.edges, res)


def test_join_prefers_left_witness_then_right_then_cross():
    left = TreeLeaf(build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    right = TreeLeaf(build_graph(2, [(0, 1)]))
    res = im(DecompositionTree(JoinNode(left, right)))
    assert res.value == 2 and all(v < 5 for e in res.witness for v in e)

    # two single-vertex leaves force the cross edge
    lone = '{"type":"tree","n":1,"edges":[]}'
    cross = im(parse_decomposition(f'{{"type":"join","children":[{lone},{lone}]}}'))
    assert cross.value == 1 and cross.witness == ((0, 1),)


@given(decomposition_trees())
def test_im_matches_oracle_independent_set(t):
    sq = square_of_linegraph(realize(t))
    assert im(t).value == exact_max_independent_set(sq)


@given(decomposition_trees(max_leaf_n=8, max_internal=4))
def test_im_witness_is_an_induced_matching_of_stated_size(t):
    res = im(t)
    assert len(res.witness) == res.value
    assert is_induced_matching(realize(t), list(res.witness))


@given(decomposition_trees(), decomposition_trees())
def test_union_adds_and_join_clamps(a, b):
    va, vb = im(a).value, im(b).value
    assert im(DecompositionTree(UnionNode(a.root, b.root))).value == va + vb
    joined = DecompositionTree(JoinNode(a.root, b.root))
    assert im(joined).value == max(va, vb, 1)


@given(trees(max_n=16))
def test_im_tree_matches_oracle(t):
    sq = square_of_linegraph(t)
    assert im(leaf(t)).value == exact_max_independent_set(sq)


def test_im_tree_on_long_random_paths_and_brooms():
    rng = random.Random(3)
    for n in (200, 500):
        t = random_labeled_tree(n, rng)
        res = im(leaf(t))
        assert res.value == len(res.witness)
        assert is_induced_matching(t, list(res.witness))


def _shuffled(n, edges, rng):
    label = list(range(n))
    rng.shuffle(label)
    return build_graph(n, [(label[u], label[v]) for u, v in edges])


def test_im_tree_closed_forms_at_scale():
    rng = random.Random(7)
    cases = []
    for n in (2, 3, 4, 5, 10**5):
        # a path: every third edge
        path = [(i, i + 1) for i in range(n - 1)]
        cases.append((_shuffled(n, path, rng), (n + 1) // 3))
    for k in (1, 2, 1000, 3 * 10**4):
        # a spider with k legs of length 2: every outer leg edge
        legs = [e for i in range(k) for e in ((0, 2 * i + 1), (2 * i + 1, 2 * i + 2))]
        cases.append((_shuffled(2 * k + 1, legs, rng), k))
    for k in (1, 5, 10**4):
        cases.append((_shuffled(k + 1, [(0, i) for i in range(1, k + 1)], rng), 1))
    for t, value in cases:
        res = im(leaf(t))
        assert res.value == value == len(res.witness), (t.n, res.value, value)
        assert is_induced_matching(t, list(res.witness))
