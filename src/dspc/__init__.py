"""Disjoint shortest paths with congestion on weighted DAGs.

Solvers for routing every demand of an instance along a shortest path while
no vertex (or edge) carries more than c paths, the reductions connecting
the congested, congestion-1, and edge-disjoint variants, and generators for
two hardness-gadget instance families with planted certificates.
"""

from .core import (
    INFINITY,
    EDGE,
    VERTEX,
    CongestionProfile,
    Dag,
    DistanceMatrix,
    Instance,
    Path,
    Solution,
    VerifyReport,
    Violation,
    all_pairs_dist,
    congestion_profile,
    is_shortest,
    reachable,
    topo_order,
    verify_solution,
)
from .errors import (
    ColorMissing,
    ContextInvalid,
    CycleDetected,
    DspcError,
    InvariantViolation,
    LimitExceeded,
    NoDonorFound,
    OracleTooLarge,
    ParseError,
    PatternNotCubicBipartite,
    ProjectionInvalid,
    ShapeMismatch,
    WitnessInvalid,
)
from .exact import (
    DisjointShortestSolver,
    MemoStore,
    brute_force_oracle,
    count_shortest_paths,
    iter_shortest_paths,
    merge_check,
    solve_disjoint_shortest,
)
from .congestion import (
    TransformMap,
    expand_congestion,
    isolate_terminals,
    project_solution,
    solve_with_congestion,
)
from .kernel import (
    SwapContext,
    canonical_shortest_path,
    concentrate_congestion,
    extend_with_shortest,
    find_hot_vertices,
    solve_kdspc,
    swap_subpaths,
)
from .edge_disjoint import EdgeNodeMap, edge_split_transform, solve_edsp
from .hardness import (
    ColoredGraph,
    GenCertificate,
    GridLayout,
    HostGraph,
    PatternGraph,
    PsiLayout,
    UndirectedGraph,
    clique_to_mcc,
    complete_bipartite_pattern,
    expected_routing_from_witness,
    find_colorful_clique,
    find_homomorphism,
    make_certificate,
    mcc_to_planar_edsp,
    psi_to_dspc,
)
from .formats import emit_instance, emit_solution, parse_instance, parse_solution

__version__ = "0.1.0"
