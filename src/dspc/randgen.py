"""Seeded random DAG instances for tests, benchmarks, and the CLI."""

from __future__ import annotations

import random
from collections import Counter

from .core import EDGE, Dag, Instance, VERTEX
from .errors import InvariantViolation


def random_dag(rng: random.Random, n: int, edge_prob: float = 0.5, max_weight: int = 2) -> Dag:
    """A random DAG on n vertices; edges point from lower to higher ids."""
    if max_weight < 1:
        raise InvariantViolation(f"max weight must be at least 1, got {max_weight}")
    if not 0 <= edge_prob <= 1:
        raise InvariantViolation(f"edge probability must lie in [0, 1], got {edge_prob}")
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < edge_prob:
                edges.append((u, v, rng.randint(1, max_weight)))
    return Dag(n, tuple(edges))


def random_instance(
    rng: random.Random,
    n: int,
    k: int,
    congestion: int,
    mode: str = VERTEX,
    edge_prob: float = 0.5,
    max_weight: int = 2,
) -> Instance:
    """A random instance; demands are forward-oriented but may be unreachable."""
    dag = random_dag(rng, n, edge_prob, max_weight)
    demands = []
    for _ in range(k):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u > v:
            u, v = v, u
        demands.append((u, v))
    return Instance(dag, tuple(demands), congestion, mode)


def grid(rows: int, cols: int) -> Dag:
    """Unit-weight grid with edges right and down; row r, column c is vertex r*cols + c + 1."""
    edges = []
    for v in range(1, rows * cols + 1):
        if v % cols:
            edges.append((v, v + 1, 1))
        if v + cols <= rows * cols:
            edges.append((v, v + cols, 1))
    return Dag(rows * cols, tuple(edges))


def layered_dag(rng: random.Random, widths: list[int], edge_prob: float = 0.6) -> Dag:
    """Unit-weight edges between consecutive layers of the given widths, numbered layer by layer.

    Every vertex gets at least one edge into the next layer.
    """
    edges = []
    first = 1
    for width, next_width in zip(widths, widths[1:]):
        here = range(first, first + width)
        after = range(first + width, first + width + next_width)
        for u in here:
            heads = [v for v in after if rng.random() < edge_prob]
            for v in heads or [rng.choice(after)]:
                edges.append((u, v, 1))
        first += width
    return Dag(sum(widths), tuple(edges))


def _forking_pairs(dag: Dag, sources) -> list[tuple[int, int]]:
    """Pairs (s, t), s in ``sources``, with at least two s-to-t paths."""
    pairs = []
    for s in sources:
        ways = Counter({s: 1})
        for u in dag.order[dag.position[s]:]:
            if ways[u]:
                for _, head, _ in dag.out_edges[u]:
                    ways[head] = min(2, ways[head] + ways[u])
        pairs += [(s, t) for t, count in ways.items() if count == 2]
    return pairs


def _distinct_demands(rng: random.Random, pairs, k: int) -> tuple | None:
    """k of the pairs, shuffled, on 2k distinct endpoints; None when they do not fit."""
    rng.shuffle(pairs)
    used: set[int] = set()
    demands = []
    for s, t in pairs:
        if len(demands) < k and s not in used and t not in used:
            used.update((s, t))
            demands.append((s, t))
    return tuple(demands) if len(demands) == k else None


def search_heavy_instance(
    rng: random.Random, k: int, congestion: int, mode: str = VERTEX
) -> Instance:
    """A grid or layered DAG with k demands on 2k distinct endpoints and 2+ shortest paths each.

    Both families have unit weights and every edge joins consecutive
    diagonals or layers, so every path is shortest. No demand is pinned
    before the search, so the search moves every pebble whose window more
    than c demand windows cover at some position; the demands often compete
    for vertices, so it backtracks. The graph is drawn again until k such
    demands fit, so a k above 7 raises InvariantViolation: the largest graphs
    are a 4x4 grid and 5 layers of 3, and in the grid the corners (1, 4) and
    (4, 1) have one path to or from every vertex they connect with, which
    leaves 14 possible endpoints.
    """
    if k > 7:
        raise InvariantViolation(f"at most 7 search-heavy demands fit, got k = {k}")
    while True:
        if rng.random() < 0.5:
            dag = grid(rng.randint(2, 4), rng.randint(3, 4))
        else:
            layers = rng.randint(3, 5)
            dag = layered_dag(rng, [rng.randint(2, 3)] * layers)
        demands = _distinct_demands(rng, _forking_pairs(dag, dag.order), k)
        if demands is not None:
            return Instance(dag, demands, congestion, mode)


def bottleneck_instance(rng: random.Random, k: int, congestion: int) -> Instance:
    """An edge-mode layered DAG whose k demands must all cross one layer of a single vertex.

    Demands sit on 2k distinct endpoints, sources before the narrow vertex
    and sinks after it, and each has 2+ shortest paths (every path is
    shortest, as in ``search_heavy_instance``). At least one side of the
    narrow vertex is two layers deep, since with one layer on each side
    every path is unique. All k paths run through the narrow vertex, so its
    few in- and out-edges must share them out at c each. At c = 2 and k of
    4 to 6 about one draw in five is infeasible, where
    ``search_heavy_instance`` draws almost never are. The graph is drawn
    again until k such demands fit, so a k above 8 raises
    InvariantViolation: the sources lie before the narrow vertex, in at most
    2 layers of 4.
    """
    if k > 8:
        raise InvariantViolation(f"at most 8 bottleneck demands fit, got k = {k}")
    while True:
        width, before = rng.randint(3, 4), rng.randint(1, 2)
        after = 2 if before == 1 else rng.randint(1, 2)
        dag = layered_dag(rng, [width] * before + [1] + [width] * after)
        narrow = before * width + 1
        pairs = [(s, t) for s, t in _forking_pairs(dag, range(1, narrow)) if t > narrow]
        demands = _distinct_demands(rng, pairs, k)
        if demands is not None:
            return Instance(dag, demands, congestion, EDGE)
