"""Strong edge colorings and induced matchings of tree-cographs and
permutation graphs, with exact brute-force oracles for cross-verification.

`sci`, `im` and `strong_coloring` run in linear time on decomposition
trees.  The `perm` command colors a permutation graph by running
`greedy_trapezoid_coloring` on `inversions(pi)`; `strong_color_permutation`
is the checked entry point for library callers, which first checks that
the inversion lists it is given match the permutation.
`strongedge.oracle` exists to falsify them: the exact solvers and the
structural checks, which take graphs as bitset adjacency rows,
`square_of_linegraph`, which builds L(G)^2 as those rows, and
`complement`.  This package re-exports only `exact_chromatic_number`,
`exact_max_independent_set` and `square_of_linegraph` of them; the
clique search, `is_clique`, `is_chordal`, `is_ptolemaic`,
`has_induced_cycle_at_least`, `complement`, `adjacency_rows` and the
chordal machinery (Lex-BFS, perfect elimination orderings,
`chordal_coloring`) come from `strongedge.oracle` only, and the
trapezoid model (`Trapezoid`, `trapezoid_model`, `trapezoids_intersect`)
from `strongedge.permutation` only.
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
    exact_chromatic_number,
    exact_max_independent_set,
    square_of_linegraph,
)
from .permutation import (
    PermutationDiagram,
    PermutationError,
    greedy_trapezoid_coloring,
    inversions,
    is_chain_coloring,
    parse_permutation,
    permutation_graph,
    strong_color_permutation,
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
    "TreeLeaf",
    "UnionNode",
    "build_graph",
    "exact_chromatic_number",
    "exact_max_independent_set",
    "greedy_trapezoid_coloring",
    "im",
    "inversions",
    "is_chain_coloring",
    "is_induced_matching",
    "is_induced_matching_in",
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
    "tree_from_prufer",
]
