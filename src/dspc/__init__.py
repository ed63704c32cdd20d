"""Disjoint shortest paths with congestion on weighted DAGs.

Solvers for routing every demand of an instance along a shortest path while
no vertex (or edge) carries more than c paths, the reductions connecting
the congested, congestion-1, and edge-disjoint variants, and generators for
two hardness-gadget instance families with planted certificates.

``import dspc`` loads no submodule. Each public name below is imported from
its home submodule on first use (``dspc.solve_kdspc`` or ``from dspc import
solve_kdspc`` loads ``dspc.kernel`` and what it imports), so a caller pays
only for the modules it uses. The ``dspc solve``, ``verify`` and ``oracle``
commands, for one, load only ``cli``, ``core``, ``errors``, ``exact`` and
``formats``, and no reduction module.
"""

import importlib

__version__ = "0.1.0"

# Public names by home submodule.
_EXPORTS = {
    "core": (
        "INFINITY", "EDGE", "VERTEX", "Dag", "Instance", "Path", "Solution",
        "congestion_profile", "reachable", "verify_solution",
    ),
    "errors": (
        "ColorMissing", "CycleDetected", "DspcError", "InvariantViolation",
        "LimitExceeded", "NoDonorFound", "OracleTooLarge", "ParseError",
        "PatternNotCubicBipartite", "ProjectionInvalid", "ShapeMismatch", "WitnessInvalid",
    ),
    "exact": (
        "DisjointShortestSolver", "MemoStore", "brute_force_oracle", "count_shortest_paths",
        "iter_shortest_paths", "solve_disjoint_shortest", "solve_with_congestion",
    ),
    "congestion": ("expand_congestion", "isolate_terminals", "project_solution"),
    "kernel": (
        "concentrate_congestion", "find_hot_vertices", "solve_kdspc", "swap_subpaths",
    ),
    "edge_disjoint": ("edge_split_transform", "solve_edsp"),
    "hardness": (
        "ColoredGraph", "HostGraph", "PatternGraph", "UndirectedGraph", "clique_to_mcc",
        "complete_bipartite_pattern", "find_colorful_clique", "find_homomorphism",
        "mcc_to_planar_edsp", "psi_to_dspc",
    ),
    "formats": ("emit_instance", "emit_solution", "parse_instance", "parse_solution"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    # An AttributeError for a name outside the table lets
    # ``from dspc import kernel`` fall through to importing the submodule.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
