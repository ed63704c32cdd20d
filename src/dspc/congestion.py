"""The paper's reduction of vertex congestion c to congestion 1.

The reduction is kept as a tested reproduction that no solve takes; the
solve route, ``exact.solve_with_congestion``, runs the exact solver at the
instance's own budget c. Fresh degree-one endpoints are attached
to every demand first, so no demand endpoint can sit on the interior of
another path. Every non-terminal vertex is then copied c times, with each
original edge wired between all copy pairs; a disjoint routing in the
copied graph collapses back (by merging copies) to a routing with vertex
congestion at most c, and conversely a congested routing lifts by handing
the paths through each vertex distinct copies of it. Distances are
unchanged up to the two unit-weight gadget edges added per demand.

``TransformMap``, ``compose`` and ``project_solution`` serve all three of
the paper's reductions: these two and the edge split of ``edge_disjoint``.
A map holds the source instance, the target instance and the backward map
of vertex ids; demand i of the target is demand i of the source in target
ids, so the target's own demand list says where each path must run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import Dag, EDGE, Instance, Path, Solution, VERTEX, verify_solution
from .errors import InvariantViolation, ProjectionInvalid, ShapeMismatch
# No solve reads the solve route from here; it stays importable under this
# name because the benchmark's traced runs wrap it by name.
from .exact import solve_with_congestion  # noqa: F401


@dataclass(frozen=True)
class TransformMap:
    """Bookkeeping for one transform step (or a composition of steps).

    ``backward`` maps every target vertex to its source vertex, or to the
    source edge ``(u, v)`` when the source is in edge mode, or to None for
    gadget vertices that projection must strip. Demand i of ``target`` is
    demand i of ``source``, in target ids.
    """

    source: Instance
    target: Instance
    backward: Mapping[int, int | tuple[int, int] | None]


def compose(first: TransformMap, second: TransformMap) -> TransformMap:
    """Chain two transform steps into a single source-to-final map."""
    if first.target != second.source:
        raise InvariantViolation("transform maps do not chain")
    backward = {}
    for w, mid in second.backward.items():
        backward[w] = None if mid is None else first.backward.get(mid)
    return TransformMap(source=first.source, target=second.target, backward=backward)


def isolate_terminals(inst: Instance) -> tuple[Instance, TransformMap]:
    """Attach a fresh source and terminal to every demand.

    Demand i becomes (s'_i, t'_i) where s'_i has a single unit-weight edge
    into the old source and t'_i a single unit-weight edge from the old
    terminal, so each demand's shortest distance grows by exactly 2 and no
    endpoint can appear inside another demand's path.
    """
    if inst.mode != VERTEX:
        raise InvariantViolation("terminal isolation applies to vertex mode")
    dag = inst.dag
    n = dag.vertex_count
    edges = list(dag.edges)
    demands = []
    for i, (s, t) in enumerate(inst.demands):
        new_s = n + 2 * i + 1
        new_t = n + 2 * i + 2
        edges.append((new_s, s, 1))
        edges.append((t, new_t, 1))
        demands.append((new_s, new_t))
    new_dag = Dag(n + 2 * inst.k, tuple(edges))
    target = Instance(new_dag, tuple(demands), inst.congestion, VERTEX)
    tm = TransformMap(
        source=inst,
        target=target,
        backward={v: (v if v <= n else None) for v in range(1, n + 2 * inst.k + 1)},
    )
    return target, tm


def expand_congestion(inst: Instance) -> tuple[Instance, TransformMap]:
    """Copy every non-terminal vertex c times, yielding a congestion-1 instance.

    Requires isolated terminals: every demand endpoint must be a fresh
    degree-one vertex used by exactly one demand. Each edge (u, v, w) becomes
    (u_i, v_j, w) for every pair of copy indices, with terminal endpoints
    un-copied. Wiring all pairs (rather than only equal indices) lets a path
    change copy index at every hop, which is what makes the reduction
    complete: a congestion-c routing assigns, at each vertex, distinct copies
    to the (at most c) paths through it, and any such per-vertex assignment
    is realizable. With equal-index wiring only, three pairwise-overlapping
    paths already need three tracks at c = 2 and feasibility is lost.
    """
    if inst.mode != VERTEX:
        raise InvariantViolation("congestion expansion applies to vertex mode")
    dag = inst.dag
    _require_isolated(inst)
    c = inst.congestion
    terminals = {v for pair in inst.demands for v in pair}

    copies_of: dict[int, range] = {}
    backward: dict[int, int | None] = {}
    next_id = 1
    for v in range(1, dag.vertex_count + 1):
        copies = range(next_id, next_id + (1 if v in terminals else c))
        next_id = copies.stop
        copies_of[v] = copies
        for new_id in copies:
            backward[new_id] = v

    edges: dict[tuple[int, int], int] = {}
    for u, v, w in dag.edges:
        for u_copy in copies_of[u]:
            for v_copy in copies_of[v]:
                edges.setdefault((u_copy, v_copy), w)

    new_dag = Dag(next_id - 1, tuple((u, v, w) for (u, v), w in edges.items()))
    demands = tuple((copies_of[s][0], copies_of[t][0]) for s, t in inst.demands)
    target = Instance(new_dag, demands, 1, VERTEX)
    return target, TransformMap(source=inst, target=target, backward=backward)


def _require_isolated(inst: Instance) -> None:
    endpoints = [v for pair in inst.demands for v in pair]
    if len(set(endpoints)) != len(endpoints):
        raise InvariantViolation("terminals are not isolated: shared demand endpoints")
    out_deg = {v: 0 for v in endpoints}
    in_deg = {v: 0 for v in endpoints}
    for u, v, _ in inst.dag.edges:
        if u in out_deg:
            out_deg[u] += 1
        if v in in_deg:
            in_deg[v] += 1
    for s, t in inst.demands:
        if out_deg[s] != 1 or in_deg[s] != 0 or in_deg[t] != 1 or out_deg[t] != 0:
            raise InvariantViolation(
                "terminals are not isolated: endpoints must be fresh degree-one vertices"
            )


def project_solution(sol: Solution, tm: TransformMap) -> Solution:
    """Map a transformed-instance solution back to the original instance.

    Each path must run between its demand's endpoints in the target;
    copies collapse to their originals and gadget endpoints are stripped;
    when the source is in edge mode, the edges left are chained into a walk
    of G, and a path with no edges is its demand's s = t. The result is
    re-verified against the original instance and a failure raises
    ProjectionInvalid (it would mean a transform bug). A solution with
    other than one path per demand raises ShapeMismatch.
    """
    original, demands = tm.source, tm.target.demands
    if len(sol.paths) != len(demands):
        raise ShapeMismatch(f"expected {len(demands)} paths, got {len(sol.paths)}")
    projected: list[Path] = []
    for i, (path, ends) in enumerate(zip(sol.paths, demands)):
        if (path.start, path.end) != ends:
            raise ProjectionInvalid(f"path {i} does not run between its gadget endpoints")
        kept = [tm.backward[v] for v in path.vertices]
        # Gadget vertices map to None and may only sit at the two ends.
        while kept and kept[-1] is None:
            kept.pop()
        while kept and kept[0] is None:
            kept.pop(0)
        if None in kept:
            raise ProjectionInvalid(f"path {i} visits a foreign gadget vertex")
        if original.mode == EDGE:
            if any(a[1] != b[0] for a, b in zip(kept, kept[1:])):
                raise ProjectionInvalid(f"path {i} visits edges that do not chain")
            kept = [kept[0][0]] + [v for _, v in kept] if kept else [original.demands[i][0]]
        try:
            projected.append(Path.trace(original.dag, kept))
        except InvariantViolation as exc:
            raise ProjectionInvalid(f"path {i} does not project to a path: {exc}") from exc
    result = Solution(tuple(projected))
    report = verify_solution(original, result)
    if not report.feasible:
        raise ProjectionInvalid(f"projected solution fails verification: {report.violations}")
    return result
