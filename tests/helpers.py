"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the package's own algorithms: distances
come from enumerating every simple path, reachability from a plain DFS,
topological orders from permutation filtering. Tests compare library output
against these.
"""

from __future__ import annotations

import random
from itertools import permutations
from math import inf

from dspc import Dag, Instance, Path, Solution
from dspc.randgen import grid


def chain(n: int, weight: int = 1) -> Dag:
    return Dag(n, tuple((v, v + 1, weight) for v in range(1, n)))


def diamond() -> Dag:
    return Dag(4, ((1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1)))


def grid_dag(rows: int, cols: int) -> tuple[Dag, dict[tuple[int, int], int]]:
    """Unit-weight grid directed right and down; returns (dag, coordinate ids)."""
    vid = {(r, c): r * cols + c + 1 for r in range(rows) for c in range(cols)}
    return grid(rows, cols), vid


def enumerate_all_paths(dag: Dag, s: int, t: int) -> list[tuple[tuple[int, ...], int]]:
    """Every directed s-to-t path with its weight, found by plain DFS."""
    out = {}
    for u, v, w in dag.edges:
        out.setdefault(u, []).append((v, w))
    results = []

    def walk(u, vertices, weight):
        if u == t:
            results.append((tuple(vertices), weight))
            # in a DAG continuing past t cannot come back, so stop here
            return
        for v, w in out.get(u, ()):
            walk(v, vertices + [v], weight + w)

    walk(s, [s], 0)
    return results

def is_shortest(dag: Dag, path: Path) -> bool:
    """Whether the path's length is the distance between its endpoints, by one forward sweep."""
    return path.length == dag.dist_from(path.start)[path.end]


def relabel(dag: Dag, label: list[int]) -> Dag:
    """The same graph with vertex v renamed label[v - 1]."""
    return Dag(dag.vertex_count, tuple((label[u - 1], label[v - 1], w) for u, v, w in dag.edges))


def exhaustive_distance(dag: Dag, s: int, t: int):
    paths = enumerate_all_paths(dag, s, t)
    return min((w for _, w in paths), default=inf)


def dfs_reachable(dag: Dag, s: int, t: int) -> bool:
    out = {}
    for u, v, _ in dag.edges:
        out.setdefault(u, []).append(v)
    seen = set()
    stack = [s]
    while stack:
        u = stack.pop()
        if u == t:
            return True
        if u in seen:
            continue
        seen.add(u)
        stack.extend(out.get(u, ()))
    return False


def all_topological_orders(dag: Dag) -> list[tuple[int, ...]]:
    """Every valid topological order, by filtering permutations (small n only)."""
    orders = []
    for perm in permutations(range(1, dag.vertex_count + 1)):
        rank = {v: i for i, v in enumerate(perm)}
        if all(rank[u] < rank[v] for u, v, _ in dag.edges):
            orders.append(perm)
    return orders


def kahn_order(n: int, edges) -> tuple[int, ...] | None:
    """Smallest-id-first Kahn order of vertices 1..n, or None if the graph has a cycle."""
    preds = {v: {u for u, h, _ in edges if h == v} for v in range(1, n + 1)}
    order: list[int] = []
    while len(order) < n:
        ready = [v for v in preds if not preds[v]]
        if not ready:
            return None
        v = min(ready)
        order.append(v)
        del preds[v]
        for waiting in preds.values():
            waiting.discard(v)
    return tuple(order)


def build_miss_gadget(
    rng: random.Random, hot_columns: int = 4, paths: int = 4, padding: bool = True
) -> tuple[Instance, Solution, tuple[int, ...]]:
    """A feasible solution where every path misses at least one full-load vertex.

    ``paths`` parallel tracks run through ``hot_columns`` junction columns.
    Each junction is missed by at least one path (exactly one per column when
    counts allow), so its load is paths - 1 = congestion, no single path
    covers every junction, and the first and last junctions stay on the
    designated carrier (path 0). All tracks have equal length, hence all
    paths are shortest. Returns the instance, the constructed solution, and
    the hot vertices in topological order.
    """
    k = paths
    c = k - 1  # slack 1, so k > 3 * slack needs k >= 4
    assert k >= 4 and hot_columns >= k

    # Exactly one missing path per junction column, so each junction's load is
    # k - 1 = c. Path 0 misses only interior columns (it must keep the first
    # and last junction); every other path misses at least one column, so no
    # path covers all junctions and at least one real swap is needed.
    missers = {}
    interior = list(range(2, hot_columns))
    budget = min(2, len(interior), hot_columns - (k - 1))
    for col in rng.sample(interior, rng.randint(1, budget)):
        missers[col] = 0
    others = [col for col in range(1, hot_columns + 1) if col not in missers]
    donors = list(range(1, k))
    rng.shuffle(others)
    for slot, col in enumerate(others):
        missers[col] = donors[slot] if slot < len(donors) else rng.choice(donors)

    columns: list[tuple[str, int]] = []
    for col in range(1, hot_columns + 1):
        if padding:
            for _ in range(rng.randint(0, 2)):
                columns.append(("pad", 0))
        columns.append(("hot", col))
    if padding and rng.random() < 0.5:
        columns.append(("pad", 0))

    next_id = 0

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id

    sources = [fresh() for _ in range(k)]
    spots: list[dict[int, int]] = []
    hot_ids = {}
    for kind, col in columns:
        if kind == "hot":
            shared = fresh()
            hot_ids[col] = shared
            spot = {
                i: (fresh() if missers.get(col) == i else shared) for i in range(k)
            }
        else:
            spot = {i: fresh() for i in range(k)}
        spots.append(spot)
    sinks = [fresh() for _ in range(k)]

    hop_weight = [rng.randint(1, 3) for _ in range(len(columns) + 1)]
    edges = set()
    tracks = []
    for i in range(k):
        track = [sources[i]] + [spot[i] for spot in spots] + [sinks[i]]
        tracks.append(track)
        for step, (u, v) in enumerate(zip(track, track[1:])):
            edges.add((u, v, hop_weight[step]))

    dag = Dag(next_id, tuple(sorted(edges)))
    inst = Instance(dag, tuple((sources[i], sinks[i]) for i in range(k)), c)
    sol = Solution(tuple(Path.trace(dag, t) for t in tracks))
    hot = tuple(hot_ids[col] for col in range(1, hot_columns + 1))
    return inst, sol, hot
