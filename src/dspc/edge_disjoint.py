"""The paper's edge-to-node transform from edge congestion to vertex congestion.

Every edge of the input graph becomes a vertex of a new graph H, adjacent
edge pairs become arcs carrying the second edge's weight, and each demand
endpoint occurrence gets its own fresh H-vertex (so two demands sharing an
endpoint vertex are never spuriously in conflict). Walking H visits exactly
the edges a walk of G traverses, and every H path enters its terminal node
by one unit-weight arc, so each demand's H distance is its G distance plus
1 and the shortest paths correspond. Vertex-congestion routing on H is
therefore edge-congestion routing on G.

The transform returns the ``congestion.TransformMap`` the other two
reductions use, so ``congestion.project_solution`` projects it, alone or
composed with them. Demand i of its target runs from demand i's own
source node to its own terminal node, and projection checks each path's
endpoints against that pair. Edge-mode instances are solved by
``congestion.solve_with_congestion``, which counts edge loads in the search
directly. The transform and ``solve_edsp`` (split, solve H, project back)
are kept as a tested reproduction that no solve takes.
"""

from __future__ import annotations

from .core import Dag, EDGE, Instance, Solution, VERTEX
from .errors import InvariantViolation
from .congestion import TransformMap, project_solution, solve_with_congestion


def edge_split_transform(inst: Instance) -> tuple[Instance, TransformMap]:
    """Turn an edge-mode instance on G into a vertex-mode instance on H.

    H has one vertex per G-edge, in edge order, then a source and a terminal
    node per demand. Entering an edge node costs that edge's weight, and
    entering a terminal node costs 1. A demand with equal endpoints gets a
    direct arc of weight 1, mirroring its single-vertex routing in G.
    ``backward`` sends each edge node to its G-edge ``(u, v)`` and each
    endpoint node to None.
    """
    if inst.mode != EDGE:
        raise InvariantViolation("edge_split_transform applies to edge mode")
    dag = inst.dag
    m = dag.edge_count
    node_of_edge = {(u, v): i for i, (u, v, _) in enumerate(dag.edges, start=1)}
    arcs = [
        (node_of_edge[(u, v)], node_of_edge[(v, head)], weight)
        for u, v, _ in dag.edges
        for _, head, weight in dag.out_edges[v]
    ]
    demands = []
    for i, (s, t) in enumerate(inst.demands):
        src, term = m + 2 * i + 1, m + 2 * i + 2
        demands.append((src, term))
        if s == t:
            arcs.append((src, term, 1))
            continue
        arcs.extend((src, node_of_edge[(s, head)], weight) for _, head, weight in dag.out_edges[s])
        arcs.extend((node_of_edge[(u, v)], term, 1) for u, v, _ in dag.edges if v == t)

    backward = {node: edge for edge, node in node_of_edge.items()}
    backward.update(dict.fromkeys(range(m + 1, m + 2 * inst.k + 1)))
    h_dag = Dag(m + 2 * inst.k, tuple(arcs))
    target = Instance(h_dag, tuple(demands), inst.congestion, VERTEX)
    return target, TransformMap(inst, target, backward)


def project_edge_solution(sol: Solution, tm: TransformMap) -> Solution:
    """``project_solution``, under the name the benchmark's traced runs wrap."""
    return project_solution(sol, tm)


def solve_edsp(inst: Instance) -> Solution | None:
    """Solve an edge-mode instance: split edges into H, solve H at budget c, project back."""
    if inst.mode != EDGE:
        raise InvariantViolation("solve_edsp applies to edge mode")
    h_inst, tm = edge_split_transform(inst)
    routed = solve_with_congestion(h_inst)
    if routed is None:
        return None
    return project_solution(routed, tm)
