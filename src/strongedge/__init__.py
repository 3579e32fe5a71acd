"""Strong edge colorings and induced matchings of tree-cographs and
permutation graphs, with exact brute-force oracles for cross-verification.

`sci`, `im` and `strong_coloring` run in linear time on decomposition
trees, and `strong_color_permutation` colors permutation graphs.
`strongedge.oracle` exists to falsify them: the exact solvers and the
structural checks, which take graphs as bitset adjacency rows,
`square_of_linegraph`, which builds L(G)^2 as those rows, and
`complement`.  Only that module exports `adjacency_rows`, the rows of a
plain Graph, and the chordal machinery (Lex-BFS, perfect elimination
orderings, `chordal_coloring`).
"""

from .decomposition import (
    CotreeLeaf,
    DecompositionError,
    DecompositionTree,
    JoinNode,
    TreeLeaf,
    UnionNode,
    is_induced_matching_in,
    is_strong_edge_coloring_in,
    parse_decomposition,
    random_labeled_tree,
    random_tree_cograph,
    realize,
    serialize_decomposition,
    tree_from_prufer,
)
from .graph import (
    Graph,
    GraphError,
    StrongEdgeColoring,
    build_graph,
    is_induced_matching,
    is_strong_edge_coloring,
    is_tree,
)
from .induced_matching import InducedMatchingResult, im
from .oracle import (
    BudgetExceededError,
    OracleReport,
    complement,
    exact_chromatic_number,
    exact_max_clique,
    exact_max_independent_set,
    has_induced_cycle_at_least,
    is_chordal,
    is_clique,
    is_ptolemaic,
    square_of_linegraph,
)
from .permutation import (
    PermutationDiagram,
    PermutationError,
    Trapezoid,
    greedy_trapezoid_coloring,
    inversions,
    is_chain_coloring,
    parse_permutation,
    permutation_graph,
    strong_color_permutation,
    trapezoid_model,
    trapezoids_intersect,
)
from .strong_chromatic import SChiResult, sci, strong_coloring

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CotreeLeaf",
    "DecompositionError",
    "DecompositionTree",
    "Graph",
    "GraphError",
    "InducedMatchingResult",
    "JoinNode",
    "OracleReport",
    "PermutationDiagram",
    "PermutationError",
    "SChiResult",
    "StrongEdgeColoring",
    "Trapezoid",
    "TreeLeaf",
    "UnionNode",
    "build_graph",
    "complement",
    "exact_chromatic_number",
    "exact_max_clique",
    "exact_max_independent_set",
    "greedy_trapezoid_coloring",
    "has_induced_cycle_at_least",
    "im",
    "inversions",
    "is_chain_coloring",
    "is_chordal",
    "is_clique",
    "is_induced_matching",
    "is_induced_matching_in",
    "is_ptolemaic",
    "is_strong_edge_coloring",
    "is_strong_edge_coloring_in",
    "is_tree",
    "parse_decomposition",
    "parse_permutation",
    "permutation_graph",
    "random_labeled_tree",
    "random_tree_cograph",
    "realize",
    "sci",
    "serialize_decomposition",
    "square_of_linegraph",
    "strong_color_permutation",
    "strong_coloring",
    "trapezoid_model",
    "trapezoids_intersect",
    "tree_from_prufer",
]
