"""Exact shortest-path routing with vertex or edge congestion c on DAGs, plus a brute-force oracle.

The solver is a pebbling search in the manner of Fortune, Hopcroft and
Wyllie (TCS 10, 1980). One pebble per demand (s, t) starts on s and is
finished once it rests on t. A move takes the unfinished pebbles on the
topologically first vertex u that holds any, and advances each of them
along an edge (u, v, w) that is tight for its own demand:
f[u] + w + b[v] = dist(s, t), with f = dist(s, .) and b = dist(., t). A
pebble that reached u along tight edges has f[u] = dist(s, t) - b[u], so
the test reads w + b[v] = b[u] and needs only one backward sweep per
terminal, which stops at the terminal's earliest source in topological
order: no pebble is ever before its source. The walks of a pebble are then
exactly the shortest s-to-t paths.

After a move every unfinished pebble sits after u in the topological order,
so no pebble comes back to u: all pebbles that ever visit a vertex are on
it at the same time, and an edge is only taken in the one move that leaves
its tail. ``merge_check`` therefore counts loads exactly, move by move: in
vertex mode the pebbles on each head after the move, resting and finished
ones included, and in edge mode the movers that take each edge. No move
checks a source, so in vertex mode ``solve`` first rejects any vertex at
which more than c demands start or end. In edge mode it rejects a vertex
at which more demands start than c per out-edge, or end than c per
in-edge. Congestion 1 is the disjoint case of either mode.

Before the search, ``solve`` pins every demand whose route is forced and
takes its load off the budget. A walk from s along tight edges that never
forks is the demand's only shortest path. When such walks were pinned, the
other demands are counted again, up to 2 shortest paths, skipping every
element (vertex or edge) that the pinned paths already fill to c: a demand
with one path left is pinned too, one with none makes the instance
infeasible, and the count repeats until nothing changes. The pinned loads
form a ``fixed`` map that ``merge_check`` adds to every count, so the
search moves only the free pebbles. Every pinned route is the same in every
feasible routing, so the routing found is the one the search would find
carrying every pebble. In vertex mode a pinned path may run through the
source of a free pebble, which no move checks, so ``solve`` checks those
sources itself.

A state is the tuple of pebble positions. Whether it can still be finished
depends only on the pairs (position, terminal), so the depth-first search
records each state whose moves all fail as dead and never expands it again.
Two budgets bound a solve, and running out of either raises LimitExceeded:
the memo holds at most ``MAX_DEAD_STATES`` states, and the search checks at
most ``MAX_MOVES_CHECKED`` moves. The memo alone does not bound time: the m
movers on a vertex have up to out-degree^m moves, and only in vertex mode
is m at most c. No demand count is refused up front. The search keeps its
path in an explicit stack, one level per move, so long graphs stay clear of
the recursion limit. At ``DSPC_LOG=debug`` an infeasible solve logs its
reason on the ``dspc.exact`` logger.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, product
from math import prod
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

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

#: Dead states a solve may record before LimitExceeded; about 117 MB at 27 pebbles.
MAX_DEAD_STATES = 2**19
#: Moves (``merge_check`` calls) a solve may check before LimitExceeded; 5-15 µs each.
MAX_MOVES_CHECKED = 2**20

#: One vertex per pebble, in demand order.
State = tuple[int, ...]

#: Paths pinned before the search, per element (vertex or edge); read only.
Load = Mapping[object, int]
#: The load when nothing is pinned.
NO_LOAD: Load = MappingProxyType({})

log = logging.getLogger(__name__)


@dataclass
class MemoStore:
    """Write-once record of at most ``MAX_DEAD_STATES`` states from which no moves finish."""

    entries: dict[State, None] = field(default_factory=dict)

    def put(self, state: State) -> None:
        if state in self.entries:
            raise InvariantViolation("memo entries are write-once")
        if len(self.entries) >= MAX_DEAD_STATES:
            raise LimitExceeded(f"search gave up after {MAX_DEAD_STATES} dead states")
        self.entries[state] = None


class _TightEdges(dict):
    """Tight out-edges per (vertex, terminal), each list built on its first lookup.

    ``self[u, t]`` lists the edges (u, v, w) of u with w + b[v] = b[u],
    b = dist(., t), in out-edge order; a hit is one dict lookup.
    """

    def __init__(self, out_edges: Sequence[Sequence[Edge]], to_t: Mapping[int, Sequence[float]]):
        super().__init__()
        self.out_edges = out_edges
        self.to_t = to_t

    def __missing__(self, key: tuple[int, int]) -> list[Edge]:
        u, t = key
        b = self.to_t[t]
        edges = self[key] = [e for e in self.out_edges[u] if e[2] + b[e[1]] == b[u]]
        return edges


def merge_check(
    state: State,
    movers: Sequence[int],
    edges: Sequence[Edge],
    congestion: int = 1,
    mode: str = VERTEX,
    fixed: Load = NO_LOAD,
) -> State | None:
    """Move pebble ``movers[j]`` along ``edges[j]``; the next state, or None over budget.

    In vertex mode a head's load is every pebble on it after the move,
    resting and finished ones included; in edge mode an edge's load is the
    number of movers that take it. Either load adds the ``fixed`` load of
    the paths pinned before the search (read only). Under the search's move
    order both counts are final, so accepting up to ``congestion`` on each
    is exact.
    """
    if not movers or len(movers) != len(edges):
        raise InvariantViolation("movers and edges disagree on size")
    nxt = list(state)
    for i, edge in zip(movers, edges):
        if state[i] != edge[0]:
            raise InvariantViolation(f"pebble {i} on vertex {state[i]} cannot take edge {edge}")
        nxt[i] = edge[1]
    pinned = fixed.get
    if mode == VERTEX:
        over = any(nxt.count(head) + pinned(head, 0) > congestion for _, head, _ in edges)
    else:
        over = any(edges.count(edge) + pinned(edge, 0) > congestion for edge in edges)
    return None if over else tuple(nxt)


class DisjointShortestSolver:
    """Pebbling search routing at congestion c per vertex or edge of one DAG.

    ``memo`` holds the dead states and ``pinned`` the indices of the demands
    pinned before the search, both of the latest solve() call; neither is
    mutated once that call returns.
    """

    def __init__(self, dag: Dag, congestion: int = 1, mode: str = VERTEX):
        if congestion < 1:
            raise InvariantViolation("congestion budget must be at least 1")
        if mode not in MODES:
            raise InvariantViolation(f"mode must be one of {MODES}, got {mode!r}")
        self.dag = dag
        self.congestion = congestion
        self.mode = mode
        self.memo = MemoStore()
        self.pinned: tuple[int, ...] = ()

    def solve(self, pairs: Sequence[Demand]) -> Solution | None:
        pairs = tuple((int(s), int(t)) for s, t in pairs)
        if len(pairs) < 1:
            raise InvariantViolation("need at least one demand pair")
        n = self.dag.vertex_count
        for s, t in pairs:
            if not (1 <= s <= n and 1 <= t <= n):
                raise InvariantViolation(f"demand ({s},{t}) out of vertex range 1..{n}")
        self.memo = MemoStore()
        self.pinned = ()
        c, out = self.congestion, self.dag.out_edges
        if self.mode == VERTEX:
            load = Counter(s for s, _ in pairs) + Counter(t for s, t in pairs if t != s)
            over = [v for v, count in load.items() if count > c]
        else:
            starts = Counter(s for s, t in pairs if t != s)
            ends = Counter(t for s, t in pairs if t != s)
            over = [s for s, count in starts.items() if count > c * max(1, len(out[s]))]
            if max(ends.values(), default=0) > c:
                indeg = Counter(head for edges in out for _, head, _ in edges)
                over += [t for t, count in ends.items() if count > c * max(1, indeg[t])]
        if over:
            # more paths start or end at the vertex than it can carry
            return _infeasible("endpoint overload at vertex %d", over[0])
        terminals = tuple(t for _, t in pairs)
        # Each pebble stays between its source and terminal in topological
        # order, so a terminal's sweep stops at the earliest of its sources.
        pos = self.dag.position
        first: dict[int, int] = {}
        for s, t in pairs:
            first[t] = min(s, first.get(t, s), key=pos.__getitem__)
        to_t = {t: self.dag.dist_to(t, s) for t, s in first.items()}
        for i, (s, t) in enumerate(pairs):
            if to_t[t][s] == INFINITY:
                return _infeasible("demand %d has no shortest path left", i)
        tight = _TightEdges(self.dag.out_edges, to_t)
        walks: dict[int, tuple[int, ...]] = {}
        fixed = self._pin(pairs, tight, walks)
        self.pinned = tuple(sorted(walks))
        if fixed is None:
            return None
        free = [i for i in range(len(pairs)) if i not in walks]
        states = self._search(
            tuple(pairs[i][0] for i in free), tuple(terminals[i] for i in free), tight, fixed
        )
        if states is None:
            return _infeasible("search exhausted after %d dead states", len(self.memo.entries))
        for j, i in enumerate(free):
            # Pebbles only move forward, so dropping repeats leaves each walk.
            walks[i] = tuple(dict.fromkeys(state[j] for state in states))
        return Solution(tuple(Path(walks[i], to_t[t][s]) for i, (s, t) in enumerate(pairs)))

    def _pin(
        self,
        pairs: tuple[Demand, ...],
        tight: _TightEdges,
        walks: dict[int, tuple[int, ...]],
    ) -> Load | None:
        """Pin the forced demands into ``walks`` by index; their loads, or None when infeasible."""
        c, vertex_mode = self.congestion, self.mode == VERTEX

        # Every tight edge out of a vertex reached from s leads on to t, so a
        # walk that never forks is the demand's only shortest path.
        loads = []
        for i, (s, t) in enumerate(pairs):
            taken, u = [], s
            while u != t:
                edges = tight[u, t]
                if len(edges) != 1:
                    break
                taken.append(edges[0])
                u = edges[0][1]
            else:
                walks[i] = (s, *(head for _, head, _ in taken))
                loads.append(walks[i] if vertex_mode else taken)
        if not walks:
            return NO_LOAD
        fixed = Counter(chain.from_iterable(loads))
        over = [x for x, load in fixed.items() if load > c]
        if over:
            return _infeasible("pinned paths overload %s %s", self.mode, over[0])

        # Count the free demands again on what the pinned paths leave open.
        pos, order = self.dag.position, self.dag.order
        changed = True
        while changed:
            changed = False
            for i, (s, t) in enumerate(pairs):
                if i in walks:
                    continue
                ways = {} if vertex_mode and fixed[s] >= c else {s: 1}
                last: dict[int, Edge] = {}
                for u in order[pos[s]:pos[t]]:
                    if u not in ways:
                        continue
                    for edge in tight[u, t]:
                        head = edge[1]
                        if fixed[head if vertex_mode else edge] < c:
                            ways[head] = min(2, ways.get(head, 0) + ways[u])
                            last[head] = edge
                count = ways.get(t, 0)
                if count == 0:
                    return _infeasible("demand %d has no shortest path left", i)
                if count == 1:
                    # ways is 1 all along the one path, so its last edges trace it
                    walk = [t]
                    while walk[-1] != s:
                        walk.append(last[walk[-1]][0])
                    walks[i] = tuple(reversed(walk))
                    fixed.update(walks[i] if vertex_mode else (last[v] for v in walk[:-1]))
                    changed = True

        if vertex_mode:
            starts = Counter(s for i, (s, _) in enumerate(pairs) if i not in walks)
            for s, count in starts.items():
                if fixed[s] + count > c:
                    return _infeasible("pinned paths overload vertex %d", s)
        return fixed

    def _search(
        self,
        start: State,
        terminals: State,
        tight: _TightEdges,
        fixed: Load,
    ) -> list[State] | None:
        """The states from ``start`` to ``terminals`` along the first finishing move sequence."""
        pos = self.dag.position
        c, mode, dead = self.congestion, self.mode, self.memo.entries
        checked = 0

        def moves(state: State) -> Iterator[State]:
            nonlocal checked
            u = min((v for v, t in zip(state, terminals) if v != t), key=pos.__getitem__)
            movers = [i for i, v in enumerate(state) if v == u != terminals[i]]
            options = [tight[u, terminals[i]] for i in movers]
            for pick in product(*options):
                checked += 1
                if checked > MAX_MOVES_CHECKED:
                    raise LimitExceeded(f"search gave up after {MAX_MOVES_CHECKED} moves checked")
                nxt = merge_check(state, movers, pick, c, mode, fixed)
                if nxt is not None and nxt not in dead:
                    yield nxt

        if start == terminals:
            return [start]
        path, frames = [start], [moves(start)]
        while frames:
            nxt = next(frames[-1], None)
            if nxt is None:
                frames.pop()
                self.memo.put(path.pop())
            else:
                path.append(nxt)
                if nxt == terminals:
                    return path
                frames.append(moves(nxt))
        return None


def _infeasible(reason: str, *args: object) -> None:
    """Log why a solve found no routing, and return its None."""
    log.debug("infeasible: " + reason, *args)
    return None


def solve_disjoint_shortest(
    dag: Dag, pairs: Sequence[Demand], congestion: int = 1, mode: str = VERTEX
) -> Solution | None:
    """Route every demand by a shortest path with at most ``congestion`` paths per element.

    The elements are vertices when ``mode`` is "vertex" and edges when it is
    "edge". Returns None when no such routing exists, and raises
    LimitExceeded when the search records ``MAX_DEAD_STATES`` dead states or
    checks ``MAX_MOVES_CHECKED`` moves without deciding. Deterministic: each
    move tries the movers' edges in lexicographic order of their out-edge
    lists, and the first sequence of moves that finishes wins.
    """
    return DisjointShortestSolver(dag, congestion=congestion, mode=mode).solve(pairs)


def count_shortest_paths(dag: Dag, s: int, t: int) -> int:
    """Number of distinct shortest s-to-t paths (0 when t is unreachable)."""
    f, b = dag.dist_from(s, t), dag.dist_to(t, s)
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
    f, b = dag.dist_from(s, t), dag.dist_to(t, s)
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

    def rec(i: int) -> bool:
        if i == len(choices):
            return True
        for path in choices[i]:
            keys = path.vertices if vertex_mode else tuple(path.edge_seq())
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

    return Solution(tuple(picked)) if rec(0) else None
