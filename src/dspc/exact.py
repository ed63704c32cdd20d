"""Exact shortest-path routing with vertex or edge congestion c on DAGs, plus a brute-force oracle.

The solver divides the topological order in half, guesses the ordered set of
boundary edges used by demands that cross the cut, and recurses on the two
sides with rewritten demands. Because edges only run forward in the
topological order, any path between two vertices of an interval stays inside
that interval, so "shortest within the interval" and "shortest globally"
coincide.

Each root demand (s, t) gets its own tight subgraph from one forward sweep
f = dist(s, .) and one backward sweep b = dist(., t): an edge (u, v, w) is
tight when f[u] + w + b[v] = dist(s, t), and the shortest s-to-t paths are
exactly the s-to-t paths of tight edges. One reverse sweep over the
topological range of the demand gives reachability bitmasks: bit y of
reach[x] is set when a path of tight edges runs from x to y.

Every sub-demand (u, v) the search creates keeps an invariant: in the tight
subgraph of some root demand, u reaches v. A root demand vouches for itself,
and a cut edge is only offered when u reaches its tail and its head reaches
v in the same subgraph. For any root that vouches for (u, v), a cut edge
lies on a shortest u-to-v path exactly when it is tight for that root, u
reaches its tail and its head reaches v. So the candidate set does not
depend on which root vouches: the solver takes the first one whose masks
show u reaching v, sub-demands carry no root index, and memo keys are the
plain (u, v) pairs. Any left part + cut edge + right part is then a
shortest path, so merging needs no length check. The sweeps take
O(k(n + m)) time and the masks at most one n-bit integer per vertex and
root demand, instead of an O(n(n + m)) all-pairs table.

Every vertex (vertex mode) or every edge (edge mode) carries at most c
paths, and loads are counted where they arise. Each path through a vertex v
reaches the single-vertex interval of v as a demand (v, v): in vertex mode
an interval whose demand endpoints already put more than c paths on one
vertex is rejected, and a leaf routes at most c demands. Each edge of an
interval is left-internal, right-internal or a cut edge, so in edge mode an
edge's load is the number of crossing demands that pick it at the one level
where it is a cut edge, and a leaf routes any number of demands. Congestion
1 is the disjoint case of either mode.

Sub-results are memoized per (interval, sorted demand multiset). Unlike a
full table over all demand tuples, only tuples actually reachable from the
root query are ever solved.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import prod
from typing import Iterator, NamedTuple, Sequence

from .core import (
    INFINITY,
    Dag,
    Demand,
    Edge,
    Instance,
    MODES,
    Path,
    Solution,
    VERTEX,
)
from .errors import InvariantViolation, LimitExceeded, OracleTooLarge

#: Default cap on the number of demands accepted by the exact solver.
DEFAULT_CAP = 6

#: Inclusive index range into the topological order.
Interval = tuple[int, int]

_EMPTY = Solution(())
_MISS = object()


@dataclass
class MemoStore:
    """Write-once store of solved tuples; None records an infeasible tuple.

    Keys are plain (interval, sorted demand tuple) pairs.
    """

    entries: dict[tuple, Solution | None] = field(default_factory=dict)

    def get(self, key: tuple):
        return self.entries.get(key, _MISS)

    def put(self, key: tuple, value: Solution | None) -> None:
        if key in self.entries:
            raise InvariantViolation("memo entries are write-once")
        self.entries[key] = value


class TightSubgraph(NamedTuple):
    """Distances and tight-edge reachability of one demand (s, t).

    ``dist_from`` is dist(s, .), ``dist_to`` is dist(., t) and ``length`` is
    dist(s, t). Bit y of ``reach[x]`` is set when x and y lie on shortest
    s-to-t paths and a path of tight edges runs from x to y (x = y included).
    """

    dist_from: tuple[float, ...]
    dist_to: tuple[float, ...]
    length: float
    reach: tuple[int, ...]


def tight_subgraph(dag: Dag, s: int, t: int) -> TightSubgraph | None:
    """The tight subgraph of demand (s, t), or None when t is unreachable from s."""
    f, b = dag.dist_from(s), dag.dist_to(t)
    length = f[t]
    if length == INFINITY:
        return None
    reach = [0] * (dag.vertex_count + 1)
    out_edges, pos = dag.out_edges, dag.position
    for x in reversed(dag.order[pos[s]:pos[t] + 1]):
        fx = f[x]
        if fx + b[x] != length:
            continue
        mask = 1 << x
        for _, y, w in out_edges[x]:
            if fx + w + b[y] == length:
                mask |= reach[y]
        reach[x] = mask
    return TightSubgraph(f, b, length, tuple(reach))


def split_interval(interval: Interval) -> tuple[Interval, Interval]:
    """Split an inclusive index range; the left part takes ceil(len/2) positions."""
    lo, hi = interval
    size = hi - lo + 1
    if size < 2:
        raise InvariantViolation("cannot split an interval of length < 2")
    left_size = (size + 1) // 2
    return (lo, lo + left_size - 1), (lo + left_size, hi)


def _iter_assignments(
    candidates: Sequence[Sequence[Edge]], congestion: int = 1, mode: str = VERTEX
) -> Iterator[tuple[Edge, ...]]:
    """All picks of one edge per slot within the budget on the cut.

    In vertex mode no tail and no head is used more than ``congestion``
    times; in edge mode no edge is. Tails lie left of the cut and heads right
    of it, so one counter serves both. Yields in lexicographic order by
    (slot index, candidate position).
    """
    per_edge = mode != VERTEX
    chosen: list[Edge] = []
    uses: Counter = Counter()

    def rec(slot: int) -> Iterator[tuple[Edge, ...]]:
        if slot == len(candidates):
            yield tuple(chosen)
            return
        for edge in candidates[slot]:
            held = (edge,) if per_edge else edge[:2]
            if any(uses[x] == congestion for x in held):
                continue
            chosen.append(edge)
            uses.update(held)
            yield from rec(slot + 1)
            chosen.pop()
            uses.subtract(held)

    return rec(0)


def merge_check(
    left_sol: Solution,
    right_sol: Solution,
    edges: Sequence[Edge],
    demands: Sequence[Demand],
    congestion: int = 1,
    mode: str = VERTEX,
) -> Solution | None:
    """Concatenate crossing paths across the cut and accept iff they fit the budget.

    ``demands`` are the crossing demands, aligned with the cut ``edges``; the
    last len(edges) paths of each side are their left and right parts, any
    earlier paths are demands local to one side and pass through unchanged.
    Each part must run between its demand's endpoint and its cut edge's. The
    solver only offers cut edges on a shortest path of their demand, so an
    assembled path is shortest and its length is left + weight + right. That
    no vertex of the assembled solution (vertex mode), or no cut edge (edge
    mode), carries more than ``congestion`` paths is re-verified as a
    defensive check even though it holds by construction. Returns the
    assembled paths (local left, local right, then crossing) or None on
    rejection.
    """
    t = len(edges)
    if t < 1 or len(demands) != t or len(left_sol.paths) < t or len(right_sol.paths) < t:
        raise InvariantViolation("cut edges, demands, and side solutions disagree on size")
    local = list(left_sol.paths[:-t]) + list(right_sol.paths[:-t])
    assembled: list[Path] = []
    for (s, term), (tail, head, weight), lp, rp in zip(
        demands, edges, left_sol.paths[-t:], right_sol.paths[-t:]
    ):
        if lp.start != s or lp.end != tail or rp.start != head or rp.end != term:
            return None
        assembled.append(Path(lp.vertices + rp.vertices, lp.length + weight + rp.length))
    if mode == VERTEX:
        load = Counter(v for path in local + assembled for v in path.vertices)
    else:
        load = Counter(edges)
    if max(load.values()) > congestion:
        return None
    return Solution(tuple(local + assembled))


def _in_input_order(keys: Sequence, paths: Sequence[Path]) -> Solution:
    """Put back in input order paths listed in the stable sort order of ``keys``.

    Positions, not key values, decide: equal demands keep their own paths.
    """
    out: list[Path | None] = [None] * len(keys)
    for i, path in zip(sorted(range(len(keys)), key=keys.__getitem__), paths):
        out[i] = path
    return Solution(tuple(out))


class DisjointShortestSolver:
    """Memoized divide-and-conquer solver routing at congestion c per vertex or edge of one DAG.

    The memo store is populated during solve() and may be replayed read-only
    afterwards (it is never mutated once a query returns).
    """

    def __init__(
        self, dag: Dag, cap: int = DEFAULT_CAP, congestion: int = 1, mode: str = VERTEX
    ):
        if congestion < 1:
            raise InvariantViolation("congestion budget must be at least 1")
        if mode not in MODES:
            raise InvariantViolation(f"mode must be one of {MODES}, got {mode!r}")
        self.dag = dag
        self.cap = cap
        self.congestion = congestion
        self.mode = mode
        self.order = dag.order
        self.pos = dag.position
        self.memo = MemoStore()
        self._tight: list[TightSubgraph] = []
        # (edge-list index, edge) per topological position of the tail
        self._out_by_pos: list[list[tuple[int, Edge]]] = [[] for _ in self.order]
        for index, edge in enumerate(dag.edges):
            self._out_by_pos[self.pos[edge[0]]].append((index, edge))
        self._boundary: dict[Interval, tuple[Edge, ...]] = {}

    def solve(self, pairs: Sequence[Demand]) -> Solution | None:
        pairs = tuple((int(s), int(t)) for s, t in pairs)
        if len(pairs) < 1:
            raise InvariantViolation("need at least one demand pair")
        if len(pairs) > self.cap:
            raise LimitExceeded(f"{len(pairs)} demands exceed the solver cap of {self.cap}")
        n = self.dag.vertex_count
        for s, t in pairs:
            if not (1 <= s <= n and 1 <= t <= n):
                raise InvariantViolation(f"demand ({s},{t}) out of vertex range 1..{n}")
        self._tight = []
        for s, t in dict.fromkeys(pairs):
            tight = tight_subgraph(self.dag, s, t)
            if tight is None:
                return None
            self._tight.append(tight)
        return self._solve((0, n - 1), pairs)

    def _solve(self, interval: Interval, pairs: tuple[Demand, ...]) -> Solution | None:
        if not pairs:
            return _EMPTY
        spairs = tuple(sorted(pairs))
        key = (interval, spairs)
        entry = self.memo.get(key)
        if entry is _MISS:
            entry = self._compute(interval, spairs)
            self.memo.put(key, entry)
        if entry is None or spairs == pairs:
            return entry
        return _in_input_order(pairs, entry.paths)

    def _compute(self, interval: Interval, spairs: tuple[Demand, ...]) -> Solution | None:
        pos, c = self.pos, self.congestion
        lo, hi = interval
        load: Counter = Counter()
        for s, t in spairs:
            assert lo <= pos[s] <= pos[t] <= hi, "demand escapes its interval"
            load[s] += 1
            if t != s:
                load[t] += 1
        if self.mode == VERTEX and max(load.values()) > c:
            return None  # more paths start or end at one vertex than it can carry
        if lo == hi:
            return Solution((Path((self.order[lo],), 0),) * len(spairs))

        left, right = split_interval(interval)
        mid = left[1]
        # Sides: 0 left-local, 1 right-local, 2 crossing; paths are assembled
        # in that order.
        groups: tuple[list[Demand], list[Demand], list[Demand]] = ([], [], [])
        sides: list[int] = []
        for s, t in spairs:
            side = 0 if pos[t] <= mid else 1 if pos[s] > mid else 2
            sides.append(side)
            groups[side].append((s, t))
        left_pairs, right_pairs, crossing = groups

        if not crossing:
            left_sol = self._solve(left, tuple(left_pairs))
            if left_sol is None:
                return None
            right_sol = self._solve(right, tuple(right_pairs))
            if right_sol is None:
                return None
            return _in_input_order(sides, left_sol.paths + right_sol.paths)

        # One candidate list per crossing demand (u, v): the cut edges on a
        # shortest u-to-v path, read off the tight subgraph of a root demand
        # in which u reaches v. Sets skipped by this filter could never be
        # part of a shortest routing, so the first feasible set is unchanged.
        boundary = self._boundary_edges(left, right)
        candidates: list[list[Edge]] = []
        for u, v in crossing:
            for f, b, length, reach in self._tight:
                if reach[u] >> v & 1:
                    break
            else:
                raise InvariantViolation(f"sub-demand ({u},{v}) has no tight path")
            from_u = reach[u]
            tight = [
                e for e in boundary
                if f[e[0]] + e[2] + b[e[1]] == length
                and from_u >> e[0] & 1
                and reach[e[1]] >> v & 1
            ]
            if not tight:
                return None
            candidates.append(tight)

        for assignment in _iter_assignments(candidates, c, self.mode):
            left_sub = tuple(left_pairs) + tuple(
                (pair[0], edge[0]) for pair, edge in zip(crossing, assignment)
            )
            right_sub = tuple(right_pairs) + tuple(
                (edge[1], pair[1]) for pair, edge in zip(crossing, assignment)
            )
            left_sol = self._solve(left, left_sub)
            if left_sol is None:
                continue
            right_sol = self._solve(right, right_sub)
            if right_sol is None:
                continue
            merged = merge_check(left_sol, right_sol, assignment, crossing, c, self.mode)
            if merged is None:
                continue
            return _in_input_order(sides, merged.paths)
        return None

    def _boundary_edges(self, left: Interval, right: Interval) -> tuple[Edge, ...]:
        """Edges from ``left`` into ``right``, in edge-list order."""
        cached = self._boundary.get(left)
        if cached is None:
            pos, out_by_pos = self.pos, self._out_by_pos
            lo, hi = right
            found = sorted(
                item
                for x in range(left[0], left[1] + 1)
                for item in out_by_pos[x]
                if lo <= pos[item[1][1]] <= hi
            )
            cached = tuple(edge for _, edge in found)
            self._boundary[left] = cached
        return cached


def solve_disjoint_shortest(
    dag: Dag, pairs: Sequence[Demand], cap: int = DEFAULT_CAP, congestion: int = 1,
    mode: str = VERTEX,
) -> Solution | None:
    """Route every demand by a shortest path with at most ``congestion`` paths per element.

    The elements are vertices when ``mode`` is "vertex" and edges when it is
    "edge". Returns None when no such routing exists. Deterministic: the first
    feasible boundary assignment in canonical enumeration order wins at
    every level.
    """
    return DisjointShortestSolver(dag, cap=cap, congestion=congestion, mode=mode).solve(pairs)


def count_shortest_paths(dag: Dag, s: int, t: int) -> int:
    """Number of distinct shortest s-to-t paths (0 when t is unreachable)."""
    f, b = dag.dist_from(s), dag.dist_to(t)
    target = f[t]
    if target == INFINITY:
        return 0
    if s == t:
        return 1
    ways = [0] * (dag.vertex_count + 1)
    ways[s] = 1
    pos = dag.position
    for v in dag.order[pos[s]:pos[t] + 1]:
        if not ways[v]:
            continue
        for _, head, weight in dag.out_edges[v]:
            if f[v] + weight + b[head] == target:
                ways[head] += ways[v]
    return ways[t]


def iter_shortest_paths(dag: Dag, s: int, t: int) -> Iterator[Path]:
    """All shortest s-to-t paths, in lexicographic order of their vertex sequences.

    Walks only edges (u, v) with dist(s,u) + w(u,v) + dist(v,t) = dist(s,t).
    """
    f, b = dag.dist_from(s), dag.dist_to(t)
    target = f[t]
    if target == INFINITY:
        return
    # Depth-first with an explicit stack, so long paths stay clear of the
    # recursion limit: pending[i] iterates the next vertices after path[:i].
    path: list[int] = []
    pending = [iter((s,))]
    while pending:
        v = next(pending[-1], None)
        if v is None:
            pending.pop()
            del path[-1:]  # the first level has no vertex to drop
        elif v == t:
            yield Path((*path, t), int(target))
        else:
            path.append(v)
            pending.append(iter(sorted(
                head for _, head, weight in dag.out_edges[v]
                if f[v] + weight + b[head] == target
            )))


def brute_force_oracle(inst: Instance, limit: int = 10**6) -> Solution | None:
    """Independent exhaustive solver: try every combination of shortest paths.

    Enumerates, per demand, all shortest paths between its endpoints and
    backtracks over combinations, respecting the congestion budget in the
    instance's mode. Returns the lexicographically first feasible
    combination, or None. Raises OracleTooLarge when the product of
    per-demand shortest-path counts exceeds ``limit``.
    """
    dag = inst.dag
    counts = [count_shortest_paths(dag, s, t) for s, t in inst.demands]
    if 0 in counts:
        return None  # some terminal is unreachable
    if prod(counts) > limit:
        raise OracleTooLarge(f"{prod(counts)} path combinations exceed the bound of {limit}")

    choices = [list(iter_shortest_paths(dag, s, t)) for s, t in inst.demands]
    budget = inst.congestion
    vertex_mode = inst.mode == VERTEX
    load: dict = {}
    picked: list[Path] = []

    def keys_of(path: Path):
        return path.vertices if vertex_mode else tuple(path.edge_seq())

    def rec(i: int) -> bool:
        if i == len(choices):
            return True
        for path in choices[i]:
            keys = keys_of(path)
            if any(load.get(x, 0) >= budget for x in keys):
                continue
            for x in keys:
                load[x] = load.get(x, 0) + 1
            picked.append(path)
            if rec(i + 1):
                return True
            picked.pop()
            for x in keys:
                load[x] -= 1
        return False

    if rec(0):
        return Solution(tuple(picked))
    return None
