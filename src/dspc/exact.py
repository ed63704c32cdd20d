"""Exact shortest-path routing with vertex or edge congestion c on DAGs, plus a brute-force oracle.

The solver is a pebbling search in the manner of Fortune, Hopcroft and
Wyllie (TCS 10, 1980). One pebble per demand (s, t) starts on s and is
finished once it rests on t. A move takes the unfinished pebbles on the
topologically first vertex u that holds any, and advances each of them
along an edge (u, v, w) that is tight for its own demand:
f[u] + w + b[v] = dist(s, t), with f = dist(s, .) and b = dist(., t). A
pebble that reached u along tight edges has f[u] = dist(s, t) - b[u], so
the test reads w + b[v] = b[u] and needs only one backward sweep per
terminal. The walks of a pebble are then exactly the shortest s-to-t paths.

After a move every unfinished pebble sits after u in the topological order,
so no pebble comes back to u: all pebbles that ever visit a vertex are on
it at the same time, and an edge is only taken in the one move that leaves
its tail. ``merge_check`` therefore counts loads exactly, move by move: in
vertex mode the pebbles on each head after the move, resting and finished
ones included, and in edge mode the movers that take each edge. No move
checks a source, so in vertex mode ``solve`` first rejects any vertex at
which more than c demands start or end. Congestion 1 is the disjoint case
of either mode.

A state is the tuple of pebble positions. Whether it can still be finished
depends only on the pairs (position, terminal), so the depth-first search
records each state whose moves all fail as dead and never expands it again.
The search keeps its path in an explicit stack, one level per move, so long
graphs stay clear of the recursion limit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Iterator, Sequence

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

#: One vertex per pebble, in demand order.
State = tuple[int, ...]


@dataclass
class MemoStore:
    """Write-once record of dead states, from which no sequence of moves finishes."""

    entries: dict[State, None] = field(default_factory=dict)

    def put(self, state: State) -> None:
        if state in self.entries:
            raise InvariantViolation("memo entries are write-once")
        self.entries[state] = None


def merge_check(
    state: State,
    movers: Sequence[int],
    edges: Sequence[Edge],
    congestion: int = 1,
    mode: str = VERTEX,
) -> State | None:
    """Move pebble ``movers[j]`` along ``edges[j]``; the next state, or None over budget.

    In vertex mode a head's load is every pebble on it after the move,
    resting and finished ones included; in edge mode an edge's load is the
    number of movers that take it. Under the search's move order both counts
    are final, so accepting up to ``congestion`` on each is exact.
    """
    if not movers or len(movers) != len(edges):
        raise InvariantViolation("movers and edges disagree on size")
    nxt = list(state)
    for i, edge in zip(movers, edges):
        if state[i] != edge[0]:
            raise InvariantViolation(f"pebble {i} on vertex {state[i]} cannot take edge {edge}")
        nxt[i] = edge[1]
    if mode == VERTEX:
        over = any(nxt.count(head) > congestion for _, head, _ in edges)
    else:
        over = any(edges.count(edge) > congestion for edge in edges)
    return None if over else tuple(nxt)


class DisjointShortestSolver:
    """Pebbling search routing at congestion c per vertex or edge of one DAG.

    ``memo`` holds the dead states of the latest solve() call and is not
    mutated once that call returns.
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
        self.memo = MemoStore()

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
        self.memo = MemoStore()
        if self.mode == VERTEX:
            load = Counter(s for s, _ in pairs) + Counter(t for s, t in pairs if t != s)
            if max(load.values()) > self.congestion:
                return None  # more paths start or end at one vertex than it can carry
        terminals = tuple(t for _, t in pairs)
        to_t = {t: self.dag.dist_to(t) for t in dict.fromkeys(terminals)}
        if any(to_t[t][s] == INFINITY for s, t in pairs):
            return None
        states = self._search(tuple(s for s, _ in pairs), terminals, to_t)
        if states is None:
            return None
        # Pebbles only move forward, so dropping repeats leaves each walk.
        return Solution(tuple(
            Path(tuple(dict.fromkeys(state[i] for state in states)), to_t[t][s])
            for i, (s, t) in enumerate(pairs)
        ))

    def _search(
        self, start: State, terminals: State, to_t: dict[int, tuple[float, ...]]
    ) -> list[State] | None:
        """The states from ``start`` to ``terminals`` along the first finishing move sequence."""
        pos, out_edges = self.dag.position, self.dag.out_edges
        c, mode, dead = self.congestion, self.mode, self.memo.entries
        tight: dict[tuple[int, int], list[Edge]] = {}

        def moves(state: State) -> Iterator[State]:
            u = min((v for v, t in zip(state, terminals) if v != t), key=pos.__getitem__)
            movers = [i for i, v in enumerate(state) if v == u != terminals[i]]
            options = []
            for i in movers:
                t = terminals[i]
                edges = tight.get((u, t))
                if edges is None:
                    b = to_t[t]
                    edges = tight[u, t] = [e for e in out_edges[u] if e[2] + b[e[1]] == b[u]]
                options.append(edges)
            for pick in product(*options):
                nxt = merge_check(state, movers, pick, c, mode)
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


def solve_disjoint_shortest(
    dag: Dag, pairs: Sequence[Demand], cap: int = DEFAULT_CAP, congestion: int = 1,
    mode: str = VERTEX,
) -> Solution | None:
    """Route every demand by a shortest path with at most ``congestion`` paths per element.

    The elements are vertices when ``mode`` is "vertex" and edges when it is
    "edge". Returns None when no such routing exists. Deterministic: each
    move tries the movers' edges in lexicographic order of their out-edge
    lists, and the first sequence of moves that finishes wins.
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
