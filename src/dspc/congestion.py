"""Congested routing in both modes, and the paper's reduction of congestion c to 1.

``solve_with_congestion`` is the one solve route for vertex and edge
budgets alike: it runs the exact solver at the instance's budget c in the
instance's mode and re-verifies its routing. The reduction is kept as a
tested reproduction that no solve takes: fresh degree-one endpoints are attached
to every demand first, so no demand endpoint can sit on the interior of
another path. Every non-terminal vertex is then copied c times, with each
original edge wired between all copy pairs; a disjoint routing in the
copied graph collapses back (by merging copies) to a routing with vertex
congestion at most c, and conversely a congested routing lifts by handing
the paths through each vertex distinct copies of it. Distances are
unchanged up to the two unit-weight gadget edges added per demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import (
    Dag,
    Instance,
    Path,
    Solution,
    VERTEX,
    verify_solution,
)
from .errors import InvariantViolation, ProjectionInvalid
from .exact import solve_disjoint_shortest


@dataclass(frozen=True)
class TransformMap:
    """Bookkeeping for one transform step (or a composition of steps).

    ``backward`` maps every target vertex to its source vertex, or to None
    for gadget vertices that projection must strip. ``terminal_gadget``
    records, per demand index, the demand endpoints in target ids.
    """

    source: Instance
    target: Instance
    forward: Mapping[int, tuple[int, ...]]
    backward: Mapping[int, int | None]
    terminal_gadget: Mapping[int, tuple[int, int]]


def compose(first: TransformMap, second: TransformMap) -> TransformMap:
    """Chain two transform steps into a single source-to-final map."""
    if first.target != second.source:
        raise InvariantViolation("transform maps do not chain")
    forward = {
        v: tuple(c for mid in copies for c in second.forward[mid])
        for v, copies in first.forward.items()
    }
    backward = {}
    for w, mid in second.backward.items():
        backward[w] = None if mid is None else first.backward.get(mid)
    return TransformMap(
        source=first.source,
        target=second.target,
        forward=forward,
        backward=backward,
        terminal_gadget=dict(second.terminal_gadget),
    )


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
    labels = dict(dag.labels)
    demands = []
    terminal_gadget = {}
    for i, (s, t) in enumerate(inst.demands):
        new_s = n + 2 * i + 1
        new_t = n + 2 * i + 2
        edges.append((new_s, s, 1))
        edges.append((t, new_t, 1))
        labels[new_s] = f"demand-{i + 1}-source"
        labels[new_t] = f"demand-{i + 1}-terminal"
        demands.append((new_s, new_t))
        terminal_gadget[i] = (new_s, new_t)
    new_dag = Dag(n + 2 * inst.k, tuple(edges), labels, transformed=dag.transformed)
    target = Instance(new_dag, tuple(demands), inst.congestion, VERTEX)
    tm = TransformMap(
        source=inst,
        target=target,
        forward={v: (v,) for v in range(1, n + 1)},
        backward={v: (v if v <= n else None) for v in range(1, n + 2 * inst.k + 1)},
        terminal_gadget=terminal_gadget,
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

    forward: dict[int, tuple[int, ...]] = {}
    backward: dict[int, int | None] = {}
    labels: dict[int, str] = {}
    next_id = 1
    for v in range(1, dag.vertex_count + 1):
        copies = 1 if v in terminals else c
        ids = tuple(range(next_id, next_id + copies))
        next_id += copies
        forward[v] = ids
        base = dag.labels.get(v)
        for idx, new_id in enumerate(ids):
            backward[new_id] = v
            if base is not None:
                labels[new_id] = base if copies == 1 else f"{base}.{idx + 1}"

    edges: dict[tuple[int, int], int] = {}
    for u, v, w in dag.edges:
        for u_copy in forward[u]:
            for v_copy in forward[v]:
                edges.setdefault((u_copy, v_copy), w)

    new_dag = Dag(
        next_id - 1,
        tuple((u, v, w) for (u, v), w in edges.items()),
        labels,
        transformed=True,
    )
    demands = tuple((forward[s][0], forward[t][0]) for s, t in inst.demands)
    target = Instance(new_dag, demands, 1, VERTEX)
    tm = TransformMap(
        source=inst,
        target=target,
        forward=forward,
        backward=backward,
        terminal_gadget={i: pair for i, pair in enumerate(demands)},
    )
    return target, tm


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

    Copies collapse to their originals and gadget endpoints are stripped;
    the result is re-verified against the original instance and a failure
    raises ProjectionInvalid (it would mean a transform bug).
    """
    original = tm.source
    projected: list[Path] = []
    for i, path in enumerate(sol.paths):
        expected = tm.terminal_gadget.get(i)
        if expected is not None and (path.start, path.end) != expected:
            raise ProjectionInvalid(f"path {i} does not run between its gadget endpoints")
        mapped = [tm.backward[v] for v in path.vertices]
        # Gadget vertices map to None and may only sit at the two ends.
        kept = list(mapped)
        if kept and kept[0] is None:
            kept = kept[1:]
        if kept and kept[-1] is None:
            kept = kept[:-1]
        if any(v is None for v in kept):
            raise ProjectionInvalid(f"path {i} visits a foreign gadget vertex")
        try:
            projected.append(Path.trace(original.dag, kept))
        except InvariantViolation as exc:
            raise ProjectionInvalid(f"path {i} does not project to a path: {exc}") from exc
    result = Solution(tuple(projected))
    report = verify_solution(original, result)
    if not report.feasible:
        raise ProjectionInvalid(f"projected solution fails verification: {report.violations}")
    return result


def solve_with_congestion(inst: Instance) -> Solution | None:
    """Solve an instance with congestion budget c per vertex or per edge, by its mode.

    Runs the exact solver at budget c on the instance's own graph and
    re-verifies the routing it returns; a failed check raises
    ProjectionInvalid (it would mean a solver bug). Returns None exactly
    when the instance is infeasible.
    """
    routed = solve_disjoint_shortest(inst.dag, inst.demands, inst.congestion, inst.mode)
    if routed is None:
        return None
    report = verify_solution(inst, routed)
    if not report.feasible:
        raise ProjectionInvalid(f"solver routing fails verification: {report.violations}")
    return routed
