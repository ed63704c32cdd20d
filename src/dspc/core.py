"""Weighted-DAG primitives: graphs, routing instances, paths, distances, verification.

All types are immutable after construction and every operation is a pure
function, so values can be shared freely across threads. Derived data
(topological order, positions, adjacency, in-degrees) is computed lazily
and cached on the graph; a racing first access at worst recomputes.
Distances come from one sweep of the topological order per demand:
``Dag.dist_from(s, t)`` forward from a source, ``Dag.dist_to(t, s)``
backward to a terminal. Every s-t path lies between s and t in that order,
so a sweep bounded by the other endpoint covers only that window, and each
caller reads only the window's entries. No solve, verify or oracle route reads the all-pairs
table ``Dag.distances`` (O(n(n + m)) time, n^2 memory); it stays because
the benchmark's traced runs wrap it by name and read its
``DistanceMatrix.table``.

``backtrack`` is the one backtracking loop of the routes that cross-check
the solver: the oracle and the clique and homomorphism searches.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CycleDetected, InvariantViolation, ShapeMismatch

#: Distance value for unreachable vertex pairs.
INFINITY = inf

VERTEX = "vertex"
EDGE = "edge"
MODES = (VERTEX, EDGE)

#: An edge is (tail, head, weight).
Edge = tuple[int, int, int]
#: A demand is (source, terminal).
Demand = tuple[int, int]


@dataclass(frozen=True)
class Dag:
    """A weighted directed acyclic graph on vertices 1..vertex_count.

    Self-loops and parallel edges are rejected, and every weight must be at
    least 1; the paper's reductions produce no other weights. Acyclicity is
    checked the first time an ordering is requested.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        n = self.vertex_count
        if n < 1:
            raise InvariantViolation(f"vertex count must be positive, got {n}")
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        seen = set()
        ascending = True
        for tail, head, weight in self.edges:
            if not (1 <= tail <= n and 1 <= head <= n):
                raise InvariantViolation(f"edge ({tail},{head}) out of vertex range 1..{n}")
            if tail >= head:
                if tail == head:
                    raise InvariantViolation(f"self-loop at vertex {tail}")
                ascending = False
            if (tail, head) in seen:
                raise InvariantViolation(f"parallel edge ({tail},{head})")
            if weight < 1:
                raise InvariantViolation(f"edge ({tail},{head}) has weight {weight}, minimum is 1")
            seen.add((tail, head))
        # read by ``order``; not a field, so equality and repr ignore it
        object.__setattr__(self, "_ascending", ascending)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def out_edges(self) -> tuple[tuple[Edge, ...], ...]:
        """Outgoing edges per vertex, index 0 unused, in edge-list order."""
        out: list[list[Edge]] = [[] for _ in range(self.vertex_count + 1)]
        for e in self.edges:
            out[e[0]].append(e)
        return tuple(tuple(lst) for lst in out)

    @cached_property
    def in_degree(self) -> tuple[int, ...]:
        """Incoming edge count per vertex, index 0 unused."""
        indegree = [0] * (self.vertex_count + 1)
        for _, head, _ in self.edges:
            indegree[head] += 1
        return tuple(indegree)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Topological order, smallest id first among ready vertices.

        When every edge goes from a lower id to a higher one, that order is
        1..n and the graph has no cycle, so the heap is skipped; validation
        has already noted whether they do.
        """
        if self._ascending:
            return tuple(range(1, self.vertex_count + 1))
        indegree = list(self.in_degree)
        ready = [v for v in range(1, self.vertex_count + 1) if indegree[v] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for _, head, _ in self.out_edges[v]:
                indegree[head] -= 1
                if indegree[head] == 0:
                    heapq.heappush(ready, head)
        if len(order) != self.vertex_count:
            raise CycleDetected("peeling stalled; the graph contains a directed cycle")
        return tuple(order)

    @cached_property
    def position(self) -> tuple[int, ...]:
        """Index of each vertex in the topological order (index 0 unused)."""
        pos = [0] * (self.vertex_count + 1)
        for i, v in enumerate(self.order):
            pos[v] = i
        return tuple(pos)

    @cached_property
    def distances(self) -> "DistanceMatrix":
        """The all-pairs table, one sweep per source: O(n(n+m)) time, n^2 memory.

        No solve, verify or oracle route reads it; they sweep per demand.
        """
        return DistanceMatrix(tuple(self.dist_from(s) for s in range(self.vertex_count + 1)))

    def dist_from(self, source: int, last: int | None = None) -> tuple[float, ...]:
        """Shortest distance from ``source`` to every vertex, by one forward sweep.

        With ``last`` the sweep stops there: only the entries of the vertices
        from ``source`` to ``last`` in topological order are exact, and no
        caller may read the others.
        """
        dist = [INFINITY] * (self.vertex_count + 1)
        if source == 0:
            return tuple(dist)
        dist[source] = 0
        pos = self.position
        # Edges out of ``last`` reach only vertices after it, so it is not swept.
        stop = None if last is None else pos[last]
        out_edges = self.out_edges
        for v in self.order[pos[source]:stop]:
            dv = dist[v]
            if dv == INFINITY:
                continue
            for _, head, weight in out_edges[v]:
                if dv + weight < dist[head]:
                    dist[head] = dv + weight
        return tuple(dist)

    def dist_to(self, target: int, first: int | None = None) -> tuple[float, ...]:
        """Shortest distance from every vertex to ``target``, by one backward sweep.

        With ``first`` the sweep stops there: only the entries of the
        vertices from ``first`` to ``target`` in topological order, and of
        those after ``target`` (which cannot reach it), are exact, and no
        caller may read the others.
        """
        dist = [INFINITY] * (self.vertex_count + 1)
        dist[target] = 0
        pos = self.position
        out_edges = self.out_edges
        for v in reversed(self.order[0 if first is None else pos[first]:pos[target]]):
            best = INFINITY
            for _, head, weight in out_edges[v]:
                if weight + dist[head] < best:
                    best = weight + dist[head]
            dist[v] = best
        return tuple(dist)


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path distances; ``INFINITY`` marks unreachable pairs."""

    table: tuple[tuple[float, ...], ...]

    def dist(self, u: int, v: int) -> float:
        return self.table[u][v]


def _walk_length(dag: Dag, vertices: Sequence[int]) -> int:
    """Total weight of the walk through ``vertices``; InvariantViolation at a step off the graph."""
    n, out_edges = dag.vertex_count, dag.out_edges
    length = 0
    for u, v in zip(vertices, vertices[1:]):
        # a tail out of range would index out_edges from the end, or past it
        for _, head, weight in out_edges[u] if 1 <= u <= n else ():
            if head == v:
                length += weight
                break
        else:
            raise InvariantViolation(f"({u},{v}) is not an edge")
    return length


@dataclass(frozen=True)
class Path:
    """A directed walk given as a vertex sequence plus its total edge weight."""

    vertices: tuple[int, ...]
    length: int

    @classmethod
    def trace(cls, dag: Dag, vertices: tuple[int, ...] | list[int]) -> "Path":
        """Build a path from a vertex sequence, validating edges and summing weights."""
        vertices = tuple(vertices)
        if not vertices:
            raise InvariantViolation("a path needs at least one vertex")
        return cls(vertices, _walk_length(dag, vertices))

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def edge_seq(self) -> Iterator[tuple[int, int]]:
        return zip(self.vertices, self.vertices[1:])


@dataclass(frozen=True)
class Solution:
    """One path per demand, in demand order."""

    paths: tuple[Path, ...]


@dataclass(frozen=True)
class Instance:
    """A DAG, an ordered demand list, and a congestion budget in one of two modes.

    In vertex mode every vertex may route up to ``congestion`` paths, demand
    endpoints included (repeated endpoints across demands count each time).
    In edge mode the same budget applies to edges instead. Demands with
    source equal to terminal are legal and routed by a single-vertex path.
    """

    dag: Dag
    demands: tuple[Demand, ...]
    congestion: int
    mode: str = VERTEX

    def __post_init__(self):
        object.__setattr__(self, "demands", tuple((int(s), int(t)) for s, t in self.demands))
        if len(self.demands) < 1:
            raise InvariantViolation("an instance needs at least one demand")
        if self.congestion < 1:
            raise InvariantViolation("congestion budget must be at least 1")
        if self.mode not in MODES:
            raise InvariantViolation(f"mode must be one of {MODES}, got {self.mode!r}")
        n = self.dag.vertex_count
        for s, t in self.demands:
            if not (1 <= s <= n and 1 <= t <= n):
                raise InvariantViolation(f"demand ({s},{t}) out of vertex range 1..{n}")
        self.dag.order  # rejects cyclic graphs up front

    @property
    def k(self) -> int:
        return len(self.demands)

    @property
    def slack(self) -> int:
        """The parameter k - c, clamped at zero."""
        return max(self.k - self.congestion, 0)


@dataclass(frozen=True)
class Violation:
    """One failed feasibility check; ``subject`` is a vertex id or an edge pair."""

    kind: str  # structure | endpoints | not_shortest | congestion
    demand: int | None = None
    subject: object = None


@dataclass(frozen=True)
class VerifyReport:
    feasible: bool
    violations: tuple[Violation, ...]


def reachable(dag: Dag, s: int, t: int) -> bool:
    return dag.dist_from(s, t)[t] < INFINITY


def backtrack(
    slots: Sequence[Iterable],
    fits: Callable[[list, object], bool],
    pick: Callable[[object], object] | None = None,
    undo: Callable[[object], object] | None = None,
) -> list | None:
    """The lexicographically first pick of one option per slot where each fits the picks before it.

    ``fits(chosen, option)`` tests an option for slot ``len(chosen)``; the
    callbacks ``pick(option)`` and ``undo(option)`` follow each pick and
    each undo, so the caller can keep the state ``fits`` reads. The untried
    options sit on an explicit stack, clear of the recursion limit.
    """
    chosen: list = []
    untried = [iter(slots[0])] if slots else []
    while len(chosen) < len(slots):
        for option in untried[-1]:
            if fits(chosen, option):
                chosen.append(option)
                if pick is not None:
                    pick(option)
                if len(chosen) < len(slots):
                    untried.append(iter(slots[len(chosen)]))
                break
        else:
            # the slot is out of options: the one before tries its next
            untried.pop()
            if not untried:
                return None
            option = chosen.pop()
            if undo is not None:
                undo(option)
    return chosen


def congestion_profile(inst: Instance, sol: Solution) -> Counter:
    """How many paths use each vertex (or each edge pair, in edge mode); unused keys read 0."""
    counts: Counter = Counter()
    for path in sol.paths:
        if inst.mode == VERTEX:
            counts.update(path.vertices)
        else:
            counts.update(path.edge_seq())
    return counts


def verify_solution(inst: Instance, sol: Solution) -> VerifyReport:
    """Check a solution: endpoints, path validity, shortestness, and congestion.

    Raises ShapeMismatch when the path count differs from the demand count;
    every other defect is reported as a violation rather than an exception.
    """
    if len(sol.paths) != inst.k:
        raise ShapeMismatch(f"expected {inst.k} paths, got {len(sol.paths)}")
    dag = inst.dag
    violations: list[Violation] = []
    for i, (path, (s, t)) in enumerate(zip(sol.paths, inst.demands)):
        try:
            intact = bool(path.vertices) and _walk_length(dag, path.vertices) == path.length
        except InvariantViolation:
            intact = False
        if not intact:
            violations.append(Violation("structure", demand=i))
            continue
        if path.start != s or path.end != t:
            violations.append(Violation("endpoints", demand=i))
            continue
        if path.length != dag.dist_from(s, t)[t]:
            violations.append(Violation("not_shortest", demand=i))
    profile = congestion_profile(inst, sol)
    for subject in sorted(x for x, count in profile.items() if count > inst.congestion):
        violations.append(Violation("congestion", subject=subject))
    return VerifyReport(feasible=not violations, violations=tuple(violations))
