"""Congestion solver driven by a small demand core, plus subpath-swap machinery.

With slack d = k - c, any feasible instance with k > 3d demands contains a
core of 3d demands routable at congestion 2d whose routing extends to the
whole instance by giving every remaining demand an arbitrary shortest path:
a vertex then carries at most (k - 3d) remainder paths plus 2d core paths,
which is exactly the budget c. The solver enumerates demand subsets of size
3d and delegates each to the exact solver at congestion 2d.

The subpath-swapping operations make the underlying rerouting argument
executable: repeatedly exchanging equal-length subpaths between a carrier
path and a donor path concentrates all maximum-congestion vertices onto a
single path without changing any vertex load or any path length.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .core import (
    INFINITY,
    Dag,
    Instance,
    Path,
    Solution,
    VERTEX,
    congestion_profile,
    reachable,
    verify_solution,
)
from .errors import ContextInvalid, InvariantViolation, NoDonorFound
from .congestion import solve_with_congestion


def canonical_shortest_path(dag: Dag, s: int, t: int) -> Path:
    """The lexicographically smallest minimum-weight s-to-t vertex sequence.

    Greedy descent: from each vertex take the smallest successor that still
    lies on some shortest path to t.
    """
    to_t = dag.dist_to(t, s)
    if to_t[s] == INFINITY:
        raise InvariantViolation(f"no path from {s} to {t}")
    vertices = [s]
    u = s
    while u != t:
        best = None
        for _, head, weight in dag.out_edges[u]:
            if weight + to_t[head] == to_t[u]:
                if best is None or head < best:
                    best = head
        vertices.append(best)
        u = best
    return Path(tuple(vertices), int(to_t[s]))


def extend_with_shortest(
    shortest: Sequence[Path], core_solution: Solution, core_subset: Sequence[int]
) -> Solution:
    """Combine a routed demand core with given shortest paths for the rest.

    ``shortest`` holds one shortest path per demand; ``core_subset`` lists
    the demand indices the core solution covers, in the same order as its
    paths, and those demands take their core paths instead. The combined
    solution is returned unverified.
    """
    paths = list(shortest)
    for i, path in zip(core_subset, core_solution.paths):
        paths[i] = path
    return Solution(tuple(paths))


def solve_kdspc(inst: Instance) -> Solution | None:
    """Solve a vertex-mode congested instance through the demand-core reduction.

    Unreachable demands make the instance infeasible outright. When
    k <= 3(k - c) the exact solver runs at budget c directly; otherwise the
    subsets of 3(k - c) demands are tried in lexicographic order, each routed
    at congestion 2(k - c), extended with canonical shortest paths (one per
    demand, found once per call), and the first extension that verifies at
    budget c wins. The exact solver's budgets hold per core solve, so this
    route may spend C(k, 3(k - c)) times them before raising LimitExceeded.
    """
    if inst.mode != VERTEX:
        raise InvariantViolation("solve_kdspc applies to vertex mode")
    if not all(reachable(inst.dag, s, t) for s, t in inst.demands):
        return None
    d = inst.slack
    if inst.k <= 3 * d:
        return solve_with_congestion(inst)
    shortest = [canonical_shortest_path(inst.dag, s, t) for s, t in inst.demands]
    for subset in combinations(range(inst.k), 3 * d):
        if subset:
            sub = Instance(
                inst.dag,
                tuple(inst.demands[i] for i in subset),
                2 * d,
                VERTEX,
            )
            core = solve_with_congestion(sub)
            if core is None:
                continue
        else:
            core = Solution(())
        candidate = extend_with_shortest(shortest, core, subset)
        if verify_solution(inst, candidate).feasible:
            return candidate
    return None


def find_hot_vertices(inst: Instance, sol: Solution) -> tuple[int, ...]:
    """Vertices whose load equals the congestion budget, in topological order."""
    profile = congestion_profile(inst, sol)
    hot = [v for v, count in profile.counts.items() if count == inst.congestion]
    hot.sort(key=lambda v: inst.dag.position[v])
    return tuple(hot)


@dataclass(frozen=True)
class SwapContext:
    """Everything a subpath swap needs: who swaps, around which hot vertex.

    ``hot_vertices`` is the topologically ordered list of maximum-load
    vertices; the carrier path contains both window endpoints, the donor
    contains the window endpoints and the pivot. The window endpoints must be
    the hot carrier vertices closest around the pivot (no other hot carrier
    vertex may lie strictly inside the window).
    """

    dag: Dag
    hot_vertices: tuple[int, ...]
    carrier_index: int
    donor_index: int
    pivot: int
    window: tuple[int, int]


def _validate_context(sol: Solution, ctx: SwapContext) -> None:
    k = len(sol.paths)
    if not (0 <= ctx.carrier_index < k and 0 <= ctx.donor_index < k):
        raise ContextInvalid("path index out of range")
    if ctx.carrier_index == ctx.donor_index:
        raise ContextInvalid("carrier and donor must differ")
    pos = ctx.dag.position
    hot = ctx.hot_vertices
    if list(hot) != sorted(hot, key=lambda v: pos[v]):
        raise ContextInvalid("hot vertices must be in topological order")
    lo, hi = ctx.window
    for v in (ctx.pivot, lo, hi):
        if v not in hot:
            raise ContextInvalid(f"vertex {v} is not a hot vertex")
    if not (pos[lo] < pos[ctx.pivot] < pos[hi]):
        raise ContextInvalid("window must strictly surround the pivot")
    carrier = set(sol.paths[ctx.carrier_index].vertices)
    donor = set(sol.paths[ctx.donor_index].vertices)
    if lo not in carrier or hi not in carrier:
        raise ContextInvalid("window endpoints must lie on the carrier")
    if not {lo, ctx.pivot, hi} <= donor:
        raise ContextInvalid("donor must contain the window endpoints and the pivot")
    for v in hot:
        if v in carrier and v != ctx.pivot and pos[lo] < pos[v] < pos[hi]:
            raise ContextInvalid("window is not the closest hot pair around the pivot")


def _splice(path: Path, lo: int, hi: int, segment: tuple[int, ...], dag: Dag) -> Path:
    i = path.vertices.index(lo)
    j = path.vertices.index(hi)
    if i > j:
        raise ContextInvalid("window endpoints appear out of order on a path")
    return Path.trace(dag, path.vertices[:i] + segment + path.vertices[j + 1:])


def swap_subpaths(sol: Solution, ctx: SwapContext) -> Solution:
    """Exchange the window subpaths of the carrier and donor paths.

    Both subpaths run between the same two vertices and, in a solution of
    shortest paths, have equal weight, so every path keeps its length and
    every vertex keeps its load; the carrier additionally picks up the pivot.
    All three facts are asserted on the result.
    """
    _validate_context(sol, ctx)
    lo, hi = ctx.window
    carrier = sol.paths[ctx.carrier_index]
    donor = sol.paths[ctx.donor_index]
    carrier_seg = _segment(carrier, lo, hi)
    donor_seg = _segment(donor, lo, hi)
    new_carrier = _splice(carrier, lo, hi, donor_seg, ctx.dag)
    new_donor = _splice(donor, lo, hi, carrier_seg, ctx.dag)

    paths = list(sol.paths)
    paths[ctx.carrier_index] = new_carrier
    paths[ctx.donor_index] = new_donor
    result = Solution(tuple(paths))

    assert new_carrier.length == carrier.length and new_donor.length == donor.length
    before = Counter(v for p in sol.paths for v in p.vertices)
    after = Counter(v for p in result.paths for v in p.vertices)
    assert before == after, "swap changed the congestion profile"
    hot = set(ctx.hot_vertices)
    old_hot = hot & set(carrier.vertices)
    new_hot = hot & set(new_carrier.vertices)
    assert ctx.pivot in new_hot and old_hot <= new_hot
    if ctx.pivot not in old_hot:
        assert old_hot < new_hot
    return result


def _segment(path: Path, lo: int, hi: int) -> tuple[int, ...]:
    i = path.vertices.index(lo)
    j = path.vertices.index(hi)
    if i > j:
        raise ContextInvalid("window endpoints appear out of order on a path")
    return path.vertices[i:j + 1]


def concentrate_congestion(inst: Instance, sol: Solution) -> tuple[Solution, int]:
    """Swap subpaths until one path covers every maximum-load vertex.

    Requires k > 3(k - c) and a feasible solution with at least one vertex at
    full load. Each round picks the lowest-index path through the first and
    last hot vertices as carrier, the first hot vertex it misses as pivot,
    and the lowest-index path through pivot and window as donor. The carrier
    strictly gains hot vertices per swap, so at most len(hot) - 2 swaps run.
    """
    if inst.k <= 3 * inst.slack:
        raise NoDonorFound("needs more demands than three times the slack")
    hot = find_hot_vertices(inst, sol)
    if not hot:
        raise NoDonorFound("no vertex is at full load")
    pos = inst.dag.position
    swaps = 0
    while True:
        covering = [
            i for i, p in enumerate(sol.paths) if set(hot) <= set(p.vertices)
        ]
        if covering:
            assert swaps <= len(hot) - 2 or swaps == 0
            return sol, covering[0]
        carriers = [
            i
            for i, p in enumerate(sol.paths)
            if hot[0] in p.vertices and hot[-1] in p.vertices
        ]
        if not carriers:
            raise NoDonorFound("no path contains both extreme hot vertices")
        carrier_index = carriers[0]
        on_carrier = set(sol.paths[carrier_index].vertices)
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
        ctx = SwapContext(inst.dag, hot, carrier_index, donors[0], pivot, (lo, hi))
        sol = swap_subpaths(sol, ctx)
        swaps += 1
        assert swaps <= len(hot) - 2, "swap budget exceeded"
