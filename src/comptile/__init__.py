"""comptile: compatible graph tilings under incompatibility systems.

Exact desk-scale implementations of the objects behind minimum-degree
thresholds for compatible H-factors: chromatic dichotomy invariants,
incompatibility systems, extremal lower-bound constructions, exact
compatible-tiling solvers, absorption primitives, and regularity
checks, all backed by brute-force oracles.
"""

from .coloring import ChromaticProfile, bottle_graph, chi_star
from .construct import (ConstructionSpec, ExtremalInstance, augment_and_incompat,
                        komlos_base, kuhn_osthus_base, verify_index_vector_claim)
from .graphs import (Graph, MultipartiteSpec, VertexPartition, complete_graph,
                     complete_multipartite, components, cycle_graph, disjoint_union,
                     empty_graph, path_graph)
from .incompat import IncompatibilitySystem, random_bounded_system
from .lattice import GeneratedLattice, find_transferral, index_vector
from .solver import (Embedding, Tiling, enumerate_compatible_copies,
                     enumerate_transversal_copies, find_compatible_factor,
                     greedy_almost_tiling, max_compatible_tiling)

__version__ = "0.1.0"

__all__ = [
    "ChromaticProfile", "ConstructionSpec", "Embedding", "ExtremalInstance",
    "GeneratedLattice", "Graph", "IncompatibilitySystem", "MultipartiteSpec",
    "Tiling", "VertexPartition", "augment_and_incompat", "bottle_graph",
    "chi_star", "complete_graph", "complete_multipartite",
    "components", "cycle_graph", "disjoint_union", "empty_graph",
    "enumerate_compatible_copies", "enumerate_transversal_copies",
    "find_compatible_factor", "find_transferral", "greedy_almost_tiling",
    "index_vector", "komlos_base", "kuhn_osthus_base", "max_compatible_tiling",
    "path_graph", "random_bounded_system",
    "verify_index_vector_claim",
]
