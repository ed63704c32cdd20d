"""Seeded workloads for the dspc benchmark, and their expected verdicts.

Each workload builds a list of cases from ``random.Random(f"{name}:{seed}")``;
dspc itself only ever sees the instance files written from them. Expected
verdicts come from routes other than the solver under test (the brute-force
oracle, a block-by-block decomposition, a clique search) and are computed
outside every timed interval.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# long-dag: a chain of BLOCKS random blocks of BLOCK_SIZE vertices, joined at
# cut vertices, so vertex count is BLOCKS * (BLOCK_SIZE - 1) + 1.
LONG_DAG_CASES = 40
BLOCKS = 50
BLOCK_SIZE = 6

# grid-search: unit-weight grids, edges right and down, demands from the
# top-left quadrant to the bottom-right one.
GRID_CASES = 1000
GRID_SIDE = 5
GRID_DEMANDS = 3

# small-mix stops at 4 demands: at 5 demands with c = 3 or 4 about one
# instance in a thousand takes 0.3-2.5 s (see the README), and one such
# instance among 400 moves verdicts_per_s by a third between seeds.
SMALL_MIX_CASES = 400
SMALL_MIX_MAX_DEMANDS = 4

# gadgets: instances per (colored-graph size, planted) pair.
GADGET_SIZES = (3, 4, 5, 6)
GADGET_REPEATS = 24
GADGET_COLORS = 3


@dataclass(frozen=True)
class Case:
    """One instance file and the `dspc solve` calls made on it."""

    name: str
    instance: object  # dspc.core.Instance
    algos: tuple  # one solve call per entry, passed as --algo
    detail: object = None  # what the expected-verdict route needs


def _long_dag(rng: random.Random) -> list[Case]:
    from dspc import Dag, Instance

    cases = []
    n = BLOCKS * (BLOCK_SIZE - 1) + 1
    cuts = tuple(1 + b * (BLOCK_SIZE - 1) for b in range(BLOCKS + 1))
    for index in range(LONG_DAG_CASES):
        edges = []
        for entry in cuts[:-1]:
            ids = range(entry, entry + BLOCK_SIZE)
            for i, u in enumerate(ids):
                for v in ids[i + 1:]:
                    # The spine edge u -> u+1 keeps every later vertex reachable.
                    if v == u + 1 or rng.random() < 0.5:
                        edges.append((u, v, rng.randint(1, 2)))
        # A feasible solve builds a second distance table to verify, so the
        # two verdicts form two time modes. Fixing their mix keeps the median
        # inside one mode: two cases in four have 2 demands (always routable
        # at c = 2), one has 3 demands that leave every cut vertex within
        # budget, and one has 3-4 demands that overload a cut vertex.
        kind = index % 4
        while True:
            demands = []
            for _ in range(2 if kind < 2 else 3 if kind == 2 else rng.randint(3, 4)):
                span = rng.randint(int(0.4 * n), int(0.8 * n))
                s = rng.randint(1, n - span)
                demands.append((s, s + span))
            peak = max(sum(1 for s, t in demands if s <= x <= t) for x in cuts)
            if (peak > 2) == (kind == 3):
                break
        inst = Instance(Dag(n, tuple(edges)), tuple(demands), 2)
        cases.append(Case(f"long-dag-{index:03d}", inst, ("dnc",), cuts))
    return cases


def _grid(rng: random.Random) -> list[Case]:
    from dspc import Dag, Instance

    side, half = GRID_SIDE, GRID_SIDE // 2
    vid = lambda r, q: r * side + q + 1  # noqa: E731
    edges = []
    for r in range(side):
        for q in range(side):
            if q + 1 < side:
                edges.append((vid(r, q), vid(r, q + 1), 1))
            if r + 1 < side:
                edges.append((vid(r, q), vid(r + 1, q), 1))
    dag = Dag(side * side, tuple(edges))
    cases = []
    for index in range(GRID_CASES):
        while True:
            demands = [
                (
                    vid(rng.randrange(half), rng.randrange(half)),
                    vid(rng.randrange(side - half, side), rng.randrange(side - half, side)),
                )
                for _ in range(GRID_DEMANDS)
            ]
            # More than c demands on one endpoint is infeasible by counting
            # alone; see the README for why those instances are left out.
            if max(Counter(v for d in demands for v in d).values()) <= 2:
                break
        cases.append(Case(f"grid-{index:04d}", Instance(dag, tuple(demands), 2), ("dnc",)))
    return cases


def _small_mix(rng: random.Random) -> list[Case]:
    from dspc.randgen import random_instance

    cases = []
    for index in range(SMALL_MIX_CASES):
        k = rng.randint(2, SMALL_MIX_MAX_DEMANDS)
        inst = random_instance(rng, n=rng.randint(6, 12), k=k, congestion=rng.randint(1, k))
        algos = ("dnc", "kernel") if k > 3 * (k - inst.congestion) else ("dnc",)
        cases.append(Case(f"small-{index:04d}", inst, algos))
    return cases


def _gadgets(rng: random.Random) -> list[Case]:
    from dspc.hardness import mcc_to_planar_edsp, plant_colorful_clique, random_colored_graph

    cases = []
    for size in GADGET_SIZES:
        for plant in (False, True):
            for rep in range(GADGET_REPEATS):
                cg = random_colored_graph(rng, size, GADGET_COLORS, 0.5)
                if plant:
                    cg, _witness = plant_colorful_clique(rng, cg)
                inst, _layout = mcc_to_planar_edsp(cg, GADGET_COLORS)
                name = f"gadget-n{size}-{'planted' if plant else 'random'}-{rep:02d}"
                cases.append(Case(name, inst, ("dnc",), cg))
    return cases


def _oracle(case: Case) -> bool:
    from dspc import brute_force_oracle

    return brute_force_oracle(case.instance, limit=10**8) is not None


def _chain_verdict(case: Case) -> bool:
    """Decide a chain of blocks block by block.

    Every path between blocks passes through the cut vertices between them,
    so a cut vertex's load is fixed by the demand spans alone, and the blocks
    can be routed independently once those loads are within budget. The
    instance is feasible exactly when every cut vertex is within budget and
    every block's share of the demands is feasible.
    """
    from dspc import Dag, Instance, brute_force_oracle

    inst, cuts = case.instance, case.detail
    c = inst.congestion
    for x in cuts:
        if sum(1 for s, t in inst.demands if s <= x <= t) > c:
            return False
    blocks = len(cuts) - 1
    shares: list[list] = [[] for _ in range(blocks)]
    for s, t in inst.demands:
        if s > t:
            return False  # ids increase along every edge, so t is unreachable
        if s == t:
            if s not in cuts:
                b = max(i for i in range(blocks) if cuts[i] < s)
                shares[b].append((s, s))
            continue
        first = max(i for i in range(blocks) if cuts[i] <= s)
        last = min(i for i in range(blocks) if cuts[i + 1] >= t)
        for b in range(first, last + 1):
            shares[b].append((s if b == first else cuts[b], t if b == last else cuts[b + 1]))
    edges = inst.dag.edges
    for b, share in enumerate(shares):
        if not share:
            continue
        lo, hi = cuts[b], cuts[b + 1]
        local = tuple((u - lo + 1, v - lo + 1, w) for u, v, w in edges if lo <= u and v <= hi)
        sub = Instance(
            Dag(hi - lo + 1, local), tuple((s - lo + 1, t - lo + 1) for s, t in share), c
        )
        if brute_force_oracle(sub, limit=10**8) is None:
            return False
    return True


def _clique_verdict(case: Case) -> bool:
    from dspc import find_colorful_clique

    return find_colorful_clique(case.detail, GADGET_COLORS) is not None


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random], list]
    verdict: Callable[[Case], bool]


WORKLOADS = {
    "long-dag": Workload(_long_dag, _chain_verdict),
    "grid-search": Workload(_grid, _oracle),
    "small-mix": Workload(_small_mix, _oracle),
    "gadgets": Workload(_gadgets, _clique_verdict),
}


def build(name: str, seed: int) -> list[Case]:
    return WORKLOADS[name].build(random.Random(f"{name}:{seed}"))


def expected_verdict(name: str, case: Case) -> bool:
    return WORKLOADS[name].verdict(case)
