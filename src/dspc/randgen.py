"""Seeded random DAG instances for tests, benchmarks, and the CLI."""

from __future__ import annotations

import random
from collections import Counter

from .core import Dag, Instance, VERTEX


def random_dag(rng: random.Random, n: int, edge_prob: float = 0.5, max_weight: int = 2) -> Dag:
    """A random DAG on n vertices; edges point from lower to higher ids."""
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


def layered_dag(rng: random.Random, layers: int, width: int, edge_prob: float = 0.6) -> Dag:
    """Unit-weight edges between consecutive layers of ``width`` vertices, numbered layer by layer.

    Every vertex gets at least one edge into the next layer.
    """
    edges = []
    for layer in range(layers - 1):
        here = range(layer * width + 1, (layer + 1) * width + 1)
        for u in here:
            heads = [v + width for v in here if rng.random() < edge_prob]
            for v in heads or [rng.choice(here) + width]:
                edges.append((u, v, 1))
    return Dag(layers * width, tuple(edges))


def search_heavy_instance(
    rng: random.Random, k: int, congestion: int, mode: str = VERTEX
) -> Instance:
    """A grid or layered DAG with k demands on 2k distinct endpoints and 2+ shortest paths each.

    Both families have unit weights and every edge joins consecutive
    diagonals or layers, so every path is shortest. No demand is pinned
    before the search, so the search moves every pebble; the demands often
    compete for vertices, so it backtracks. The graph is drawn again until
    k such demands fit.
    """
    while True:
        if rng.random() < 0.5:
            dag = grid(rng.randint(2, 4), rng.randint(3, 4))
        else:
            dag = layered_dag(rng, rng.randint(3, 5), rng.randint(2, 3))
        pairs = []
        for s in dag.order:
            ways = Counter({s: 1})
            for u in dag.order[dag.position[s]:]:
                if ways[u]:
                    for _, head, _ in dag.out_edges[u]:
                        ways[head] = min(2, ways[head] + ways[u])
            pairs += [(s, t) for t, count in ways.items() if count == 2]
        rng.shuffle(pairs)
        used: set[int] = set()
        demands = []
        for s, t in pairs:
            if len(demands) < k and s not in used and t not in used:
                used.update((s, t))
                demands.append((s, t))
        if len(demands) == k:
            return Instance(dag, tuple(demands), congestion, mode)
