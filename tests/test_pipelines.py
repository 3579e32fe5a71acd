"""The two pipelines check each other.  A decomposition tree built
together with a permutation of the same graph gets the same strong
chromatic index from `sci` as palette from the trapezoid sweep, and each
pipeline's coloring passes the other pipeline's checker."""

import random
from array import array

from hypothesis import given, settings

from strongedge import (
    DecompositionTree,
    PermutationDiagram,
    StrongEdgeColoring,
    UnionNode,
    greedy_trapezoid_coloring,
    inversions,
    is_chain_coloring,
    is_strong_edge_coloring_in,
    realize,
    sci,
    strong_coloring,
)

from strategies import decomposition_with_permutation, decompositions_with_permutations


def _reordered(coloring, edges, into):
    """The colors of `coloring`, given in the order of `edges`, listed in
    the order of `into`, the same edges."""
    position = {e: i for i, e in enumerate(edges)}
    colors = coloring.colors
    return StrongEdgeColoring(array("i", [colors[position[e]] for e in into]))


def _cross_check(tree, pi):
    later = inversions(pi)
    listed = [(u, v) for u, vs in enumerate(later) for v in vs]
    edges = realize(tree).edges
    assert sorted(edges) == listed
    sweep = greedy_trapezoid_coloring(pi, later)
    assert sci(tree).value == sweep.palette_size
    assert is_strong_edge_coloring_in(tree, _reordered(sweep, listed, edges))
    diagram = PermutationDiagram(len(pi), pi)
    assert is_chain_coloring(diagram, later, _reordered(strong_coloring(tree), edges, listed))


@settings(max_examples=300)
@given(decompositions_with_permutations())
def test_pipelines_agree_on_edges_values_and_certificates(pair):
    _cross_check(*pair)


def test_pipelines_agree_on_a_union_of_3000_pieces():
    rng = random.Random(0)
    node, pi = None, []
    for _ in range(3000):
        piece, p = decomposition_with_permutation(2, lambda: rng.random() < 0.5, rng.choice)
        node = piece if node is None else UnionNode(node, piece)
        pi += [x + len(pi) for x in p]
    tree = DecompositionTree(node)
    assert (tree.n, tree.m) == (30_306, 93_904)
    _cross_check(tree, tuple(pi))
