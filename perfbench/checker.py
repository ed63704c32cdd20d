"""Routing checker that shares no code with dspc.

It reads the instance and solution files itself and computes shortest
distances with its own Dijkstra sweep from each demand source, so a fault in
dspc's parser, distance table or verifier cannot make a wrong routing pass.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Problem:
    """One instance as the files describe it."""

    vertex_count: int
    weights: dict  # (tail, head) -> weight
    demands: tuple  # ((source, terminal), ...)
    congestion: int
    mode: str  # "vertex" or "edge"


def read_instance(text: str) -> Problem:
    n = c = mode = None
    weights: dict = {}
    demands: list = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            n, c, mode = int(fields[2]), int(fields[5]), fields[6]
        elif fields[0] == "a":
            weights[(int(fields[1]), int(fields[2]))] = int(fields[3])
        elif fields[0] == "d":
            demands.append((int(fields[1]), int(fields[2])))
        else:
            raise ValueError(f"unknown instance line {line!r}")
    if n is None:
        raise ValueError("instance has no problem line")
    return Problem(n, weights, tuple(demands), c, mode)


def read_solution(text: str):
    """Return None for an infeasibility claim, else a list of (length, vertices)."""
    status = None
    paths = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "s":
            status = fields[1:]
        elif fields[0] == "p":
            paths.append((int(fields[2]), tuple(int(x) for x in fields[3:])))
        else:
            raise ValueError(f"unknown solution line {line!r}")
    if status == ["0"] and not paths:
        return None
    if status != ["1"]:
        raise ValueError(f"bad solution status {status!r}")
    return paths


def distances_from(problem: Problem, source: int) -> dict:
    """Shortest distance from ``source`` to every reachable vertex (Dijkstra)."""
    out: dict = {}
    for (u, v), w in problem.weights.items():
        out.setdefault(u, []).append((v, w))
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in out.get(u, ()):
            if d + w < dist.get(v, d + w + 1):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def routing_problems(problem: Problem, paths) -> list[str]:
    """Everything wrong with a claimed feasible routing; empty when it is valid."""
    found = []
    if len(paths) != len(problem.demands):
        return [f"{len(paths)} paths for {len(problem.demands)} demands"]
    load: Counter = Counter()
    for i, ((claimed, vertices), (s, t)) in enumerate(zip(paths, problem.demands), start=1):
        if not vertices:
            found.append(f"path {i} is empty")
            continue
        if vertices[0] != s or vertices[-1] != t:
            found.append(f"path {i} runs {vertices[0]}->{vertices[-1]}, demand is {s}->{t}")
        hops = list(zip(vertices, vertices[1:]))
        missing = [hop for hop in hops if hop not in problem.weights]
        if missing:
            found.append(f"path {i} uses non-edge {missing[0]}")
            continue
        length = sum(problem.weights[hop] for hop in hops)
        if length != claimed:
            found.append(f"path {i} claims length {claimed}, edges sum to {length}")
        shortest = distances_from(problem, s).get(t)
        if length != shortest:
            found.append(f"path {i} has length {length}, shortest {s}->{t} is {shortest}")
        load.update(vertices if problem.mode == "vertex" else hops)
    for item, count in sorted(load.items()):
        if count > problem.congestion:
            found.append(f"{problem.mode} {item} carries {count} paths, budget {problem.congestion}")
    return found
