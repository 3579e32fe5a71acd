"""Strong edge colorings and induced matchings of tree-cographs and
permutation graphs, with exact brute-force oracles for cross-verification.

`sci`, `im` and `strong_coloring` run in linear time on decomposition
trees, and `strong_color_permutation` colors permutation graphs; `oracle`,
`chordal` and `square_of_linegraph` exist to falsify the rest.
"""

from .chordal import (
    PerfectEliminationError,
    chordal_coloring,
    is_chordal,
    is_perfect_elimination_ordering,
    lexbfs_order,
)
from .decomposition import (
    CotreeLeaf,
    DecompositionError,
    DecompositionTree,
    JoinNode,
    TreeLeaf,
    UnionNode,
    is_induced_matching_in,
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
    SquaredLinegraph,
    StrongEdgeColoring,
    build_graph,
    complement,
    is_induced_matching,
    is_strong_edge_coloring,
    is_tree,
    square_of_linegraph,
)
from .induced_matching import InducedMatchingResult, im
from .oracle import (
    BudgetExceededError,
    OracleReport,
    exact_chromatic_number,
    exact_max_clique,
    exact_max_independent_set,
    has_induced_cycle_at_least,
    is_clique,
    is_ptolemaic,
)
from .permutation import (
    PermutationDiagram,
    PermutationError,
    Trapezoid,
    greedy_trapezoid_coloring,
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
    "PerfectEliminationError",
    "PermutationDiagram",
    "PermutationError",
    "SChiResult",
    "SquaredLinegraph",
    "StrongEdgeColoring",
    "Trapezoid",
    "TreeLeaf",
    "UnionNode",
    "build_graph",
    "chordal_coloring",
    "complement",
    "exact_chromatic_number",
    "exact_max_clique",
    "exact_max_independent_set",
    "greedy_trapezoid_coloring",
    "has_induced_cycle_at_least",
    "im",
    "is_chain_coloring",
    "is_chordal",
    "is_clique",
    "is_induced_matching",
    "is_induced_matching_in",
    "is_perfect_elimination_ordering",
    "is_ptolemaic",
    "is_strong_edge_coloring",
    "is_tree",
    "lexbfs_order",
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
