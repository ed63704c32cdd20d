"""The paper's edge-to-node transform from edge congestion to vertex congestion.

Every edge of the input graph becomes a vertex of a new graph H, adjacent
edge pairs become arcs carrying the second edge's weight, and each demand
endpoint occurrence gets its own fresh H-vertex (so two demands sharing an
endpoint vertex are never spuriously in conflict). Walking H visits exactly
the edges a walk of G traverses, with identical total weight, so
vertex-congestion routing on H is edge-congestion routing on G.

Edge-mode instances are solved by ``congestion.solve_with_congestion``,
which counts edge loads in the search directly. The transform, its
projection and ``solve_edsp`` (split, solve H, project back) are kept as a
tested reproduction that no solve takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import Dag, EDGE, Instance, Path, Solution, VERTEX, verify_solution
from .errors import InvariantViolation, ProjectionInvalid
from .congestion import solve_with_congestion

SOURCE = "source"
TERMINAL = "terminal"


@dataclass(frozen=True)
class EdgeNodeMap:
    """Correspondence between G-edges (plus demand endpoints) and H-vertices."""

    source: Instance
    target: Instance
    node_of_edge: Mapping[tuple[int, int], int]
    endpoint_node: Mapping[tuple[int, str], int]


def edge_split_transform(inst: Instance) -> tuple[Instance, EdgeNodeMap]:
    """Turn an edge-mode instance on G into a vertex-mode instance on H.

    H has one vertex per G-edge plus one per demand endpoint occurrence.
    Entering an edge node costs that edge's weight; leaving into a terminal
    node costs nothing. A demand with equal endpoints gets a direct
    zero-weight arc, mirroring its single-vertex routing in G.
    """
    if inst.mode != EDGE:
        raise InvariantViolation("edge_split_transform applies to edge mode")
    dag = inst.dag
    node_of_edge = {(u, v): i + 1 for i, (u, v, _) in enumerate(dag.edges)}
    labels = {i + 1: f"edge-{u}-{v}" for i, (u, v, _) in enumerate(dag.edges)}
    next_id = dag.edge_count + 1
    endpoint_node = {}
    for i in range(inst.k):
        endpoint_node[(i, SOURCE)] = next_id
        labels[next_id] = f"demand-{i + 1}-source"
        endpoint_node[(i, TERMINAL)] = next_id + 1
        labels[next_id + 1] = f"demand-{i + 1}-terminal"
        next_id += 2

    arcs: list[tuple[int, int, int]] = []
    for u, v, _ in dag.edges:
        here = node_of_edge[(u, v)]
        for _, head, weight in dag.out_edges[v]:
            arcs.append((here, node_of_edge[(v, head)], weight))
    for i, (s, t) in enumerate(inst.demands):
        src = endpoint_node[(i, SOURCE)]
        term = endpoint_node[(i, TERMINAL)]
        if s == t:
            arcs.append((src, term, 0))
            continue
        for _, head, weight in dag.out_edges[s]:
            arcs.append((src, node_of_edge[(s, head)], weight))
        for u, v, _ in dag.edges:
            if v == t:
                arcs.append((node_of_edge[(u, v)], term, 0))

    h_dag = Dag(next_id - 1, tuple(arcs), labels, transformed=True)
    demands = tuple(
        (endpoint_node[(i, SOURCE)], endpoint_node[(i, TERMINAL)]) for i in range(inst.k)
    )
    target = Instance(h_dag, demands, inst.congestion, VERTEX)
    return target, EdgeNodeMap(inst, target, node_of_edge, endpoint_node)


def project_edge_solution(sol: Solution, emap: EdgeNodeMap) -> Solution:
    """Convert an H routing back into G paths and re-verify edge congestion."""
    original = emap.source
    node_to_edge = {node: edge for edge, node in emap.node_of_edge.items()}
    paths = []
    for i, path in enumerate(sol.paths):
        s, t = original.demands[i]
        expected = (emap.endpoint_node[(i, SOURCE)], emap.endpoint_node[(i, TERMINAL)])
        if (path.start, path.end) != expected:
            raise ProjectionInvalid(f"path {i} does not run between its endpoint nodes")
        edge_nodes = path.vertices[1:-1]
        if not edge_nodes:
            if s != t:
                raise ProjectionInvalid(f"path {i} skips every edge but {s} != {t}")
            paths.append(Path((s,), 0))
            continue
        edges = []
        for node in edge_nodes:
            edge = node_to_edge.get(node)
            if edge is None:
                raise ProjectionInvalid(f"path {i} visits a foreign endpoint node")
            edges.append(edge)
        vertices = [edges[0][0]] + [v for _, v in edges]
        try:
            paths.append(Path.trace(original.dag, vertices))
        except InvariantViolation as exc:
            raise ProjectionInvalid(f"path {i} does not project to a path: {exc}") from exc
    result = Solution(tuple(paths))
    report = verify_solution(original, result)
    if not report.feasible:
        raise ProjectionInvalid(f"projected solution fails verification: {report.violations}")
    return result


def solve_edsp(inst: Instance) -> Solution | None:
    """Solve an edge-mode instance: split edges into H, solve H at budget c, project back."""
    if inst.mode != EDGE:
        raise InvariantViolation("solve_edsp applies to edge mode")
    h_inst, emap = edge_split_transform(inst)
    routed = solve_with_congestion(h_inst)
    if routed is None:
        return None
    return project_edge_solution(routed, emap)
