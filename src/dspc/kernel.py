"""Congestion solver driven by a small demand core, plus the paper's subpath swap.

With slack d = k - c, any feasible instance with k > 3d demands contains a
core of 3d demands routable at congestion 2d whose routing extends to the
whole instance by giving every remaining demand an arbitrary shortest path:
a vertex then carries at most (k - 3d) remainder paths plus 2d core paths,
which is exactly the budget c. The solver enumerates demand subsets of size
3d and routes each by ``exact.solve_with_congestion`` at congestion 2d; it
imports no reduction module.

The subpath swap makes the underlying rerouting argument executable: two
shortest paths through vertices x and y can exchange their x-y subpaths and
keep every path length and every vertex load. ``swap_subpaths`` does one
such exchange; ``concentrate_congestion`` picks the exchanges that gather
all maximum-load vertices onto a single carrier path.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .core import Dag, Instance, Path, Solution, VERTEX, congestion_profile, verify_solution
from .errors import InvariantViolation, NoDonorFound, ProjectionInvalid
from .exact import iter_shortest_paths, solve_with_congestion


def solve_kdspc(inst: Instance) -> Solution | None:
    """Solve a vertex-mode congested instance through the demand-core reduction.

    When k <= 3(k - c) the exact solver runs at budget c directly.
    Otherwise each demand's canonical shortest path (the first one
    ``iter_shortest_paths`` yields) is found once per call,
    and a demand without one makes the instance infeasible outright; the
    subsets of 3(k - c) demands are tried in lexicographic order, each routed
    at congestion 2(k - c), and the first core that routes is extended with
    the canonical paths. The extension loads a vertex with at most
    2(k - c) + (k - 3(k - c)) = c paths, so it must verify at budget c; a
    failure raises ProjectionInvalid (it would mean a solver bug). The exact
    solver's budgets hold per core solve, so this route may spend
    C(k, 3(k - c)) times them before raising LimitExceeded.
    """
    if inst.mode != VERTEX:
        raise InvariantViolation("solve_kdspc applies to vertex mode")
    d = inst.slack
    if inst.k <= 3 * d:
        return solve_with_congestion(inst)
    shortest = [next(iter_shortest_paths(inst.dag, s, t), None) for s, t in inst.demands]
    if None in shortest:
        return None
    for subset in combinations(range(inst.k), 3 * d):
        paths = list(shortest)
        if subset:
            sub = Instance(inst.dag, tuple(inst.demands[i] for i in subset), 2 * d, VERTEX)
            core = solve_with_congestion(sub)
            if core is None:
                continue
            for i, path in zip(subset, core.paths):
                paths[i] = path
        candidate = Solution(tuple(paths))
        report = verify_solution(inst, candidate)
        if not report.feasible:
            raise ProjectionInvalid(f"core routing does not extend: {report.violations}")
        return candidate
    return None


def find_hot_vertices(inst: Instance, sol: Solution) -> tuple[int, ...]:
    """Vertices whose load equals the congestion budget, in topological order.

    Vertex mode only; an edge-mode instance raises InvariantViolation.
    """
    if inst.mode != VERTEX:
        raise InvariantViolation("hot vertices apply to vertex mode")
    hot = [v for v, count in congestion_profile(inst, sol).items() if count == inst.congestion]
    hot.sort(key=lambda v: inst.dag.position[v])
    return tuple(hot)


def _window(path: Path, lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """Split a path into the part before lo, the lo-hi subpath, and the part after hi."""
    vertices = path.vertices
    if lo not in vertices or hi not in vertices:
        raise InvariantViolation(f"window ({lo}, {hi}) is not on path {vertices}")
    i, j = vertices.index(lo), vertices.index(hi)
    if i >= j:
        raise InvariantViolation(f"window ({lo}, {hi}) is out of order on path {vertices}")
    return vertices[:i], vertices[i:j + 1], vertices[j + 1:]


def swap_subpaths(
    dag: Dag, sol: Solution, carrier: int, donor: int, window: tuple[int, int]
) -> Solution:
    """Exchange the window subpaths of two paths of a solution.

    Paths ``carrier`` and ``donor`` must differ and both pass through the
    window's endpoints lo and hi, in that order; otherwise InvariantViolation.
    In a solution of shortest paths both lo-hi subpaths have the same weight,
    so each path keeps its length and each vertex its load. Both facts are
    checked on the result, and a failed check raises InvariantViolation.
    """
    k = len(sol.paths)
    if not (0 <= carrier < k and 0 <= donor < k) or carrier == donor:
        raise InvariantViolation(f"carrier {carrier} and donor {donor} must be two of {k} paths")
    old_carrier, old_donor = sol.paths[carrier], sol.paths[donor]
    c_head, c_mid, c_tail = _window(old_carrier, *window)
    d_head, d_mid, d_tail = _window(old_donor, *window)
    paths = list(sol.paths)
    paths[carrier] = Path.trace(dag, c_head + d_mid + c_tail)
    paths[donor] = Path.trace(dag, d_head + c_mid + d_tail)
    result = Solution(tuple(paths))

    if paths[carrier].length != old_carrier.length or paths[donor].length != old_donor.length:
        raise InvariantViolation("swap changed a path's length")
    before = Counter(v for p in sol.paths for v in p.vertices)
    after = Counter(v for p in result.paths for v in p.vertices)
    if before != after:
        raise InvariantViolation("swap changed the congestion profile")
    return result


def concentrate_congestion(inst: Instance, sol: Solution) -> tuple[Solution, int]:
    """Swap subpaths until one path covers every maximum-load vertex.

    Requires a vertex-mode instance (else InvariantViolation), k > 3(k - c)
    and a feasible solution with at least one vertex at full load. Each
    round picks the lowest-index path through the first and last hot
    vertices as carrier, the first hot vertex it misses as pivot, the
    closest hot carrier vertices around the pivot as window, and the
    lowest-index path through pivot and window as donor. No hot carrier
    vertex lies inside the window, so the carrier keeps its hot vertices and
    gains the pivot; this is checked after each swap, and at most
    len(hot) - 2 swaps run.
    """
    hot = find_hot_vertices(inst, sol)
    if inst.k <= 3 * inst.slack:
        raise NoDonorFound("needs more demands than three times the slack")
    if not hot:
        raise NoDonorFound("no vertex is at full load")
    pos = inst.dag.position
    swaps = 0
    while True:
        covering = [
            i for i, p in enumerate(sol.paths) if set(hot) <= set(p.vertices)
        ]
        if covering:
            return sol, covering[0]
        carriers = [
            i
            for i, p in enumerate(sol.paths)
            if hot[0] in p.vertices and hot[-1] in p.vertices
        ]
        if not carriers:
            raise NoDonorFound("no path contains both extreme hot vertices")
        carrier = carriers[0]
        on_carrier = set(sol.paths[carrier].vertices)
        pivot = next(v for v in hot if v not in on_carrier)
        lo = max((v for v in hot if v in on_carrier and pos[v] < pos[pivot]),
                 key=lambda v: pos[v])
        hi = min((v for v in hot if v in on_carrier and pos[v] > pos[pivot]),
                 key=lambda v: pos[v])
        donors = [
            i
            for i, p in enumerate(sol.paths)
            if {lo, pivot, hi} <= set(p.vertices)
        ]
        if not donors:
            raise NoDonorFound(f"no path contains {lo}, {pivot}, {hi} together")
        sol = swap_subpaths(inst.dag, sol, carrier, donors[0], (lo, hi))
        gained = set(sol.paths[carrier].vertices)
        if pivot not in gained or not on_carrier.intersection(hot) <= gained:
            raise InvariantViolation("swap lost a hot vertex from the carrier")
        swaps += 1
        if swaps > len(hot) - 2:
            raise InvariantViolation("swap budget exceeded")
