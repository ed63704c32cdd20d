"""Demand-core solver and the subpath-swapping machinery."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from dspc import (
    Dag,
    Instance,
    InvariantViolation,
    NoDonorFound,
    Path,
    ProjectionInvalid,
    Solution,
    brute_force_oracle,
    concentrate_congestion,
    congestion_profile,
    find_hot_vertices,
    iter_shortest_paths,
    solve_kdspc,
    solve_with_congestion,
    swap_subpaths,
    verify_solution,
)
from dspc import kernel
from dspc.core import VerifyReport, Violation
from dspc.randgen import grid, random_dag, random_instance

from helpers import build_miss_gadget, chain, diamond, enumerate_all_paths


class TestCanonicalShortestPath:
    def test_lexicographically_least_among_shortest(self):
        # the canonical path solve_kdspc extends with is the first one
        # iter_shortest_paths yields
        for seed in range(30):
            rng = random.Random(seed)
            dag = random_dag(rng, n=7)
            for s in range(1, 8):
                dist = dag.dist_from(s)
                for t in range(1, 8):
                    got = next(iter_shortest_paths(dag, s, t), None)
                    if dist[t] == float("inf"):
                        assert got is None
                        continue
                    brute = sorted(
                        v for v, w in enumerate_all_paths(dag, s, t)
                        if w == dist[t]
                    )
                    assert got.vertices == brute[0]
                    assert got.length == dist[t]


class TestSolveKdspc:
    def test_zero_slack_routes_everything_by_shortest_paths(self):
        dag = diamond()
        inst = Instance(dag, ((1, 4), (1, 4), (2, 4)), 3)  # c = k, slack 0
        sol = solve_kdspc(inst)
        assert sol is not None
        for path, (s, t) in zip(sol.paths, inst.demands):
            assert path == next(iter_shortest_paths(dag, s, t))

    def test_unreachable_demand_absent(self):
        inst = Instance(chain(3), ((1, 3), (3, 1), (1, 2), (2, 3)), 3)
        assert solve_kdspc(inst) is None

    def test_rejects_edge_mode(self):
        with pytest.raises(InvariantViolation):
            solve_kdspc(Instance(chain(3), ((1, 3),), 1, "edge"))

    def test_matches_oracle_on_diamond_family(self):
        # k = 4, c = 3 keeps k > 3 * slack, so the core reduction really runs
        for seed in range(40):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(4, 8), k=4, congestion=3)
            got = solve_kdspc(inst)
            want = brute_force_oracle(inst)
            assert (got is None) == (want is None)
            if got is not None:
                assert verify_solution(inst, got).feasible

    def test_agrees_with_transform_pipeline(self):
        for seed in range(60):
            rng = random.Random(seed)
            k = rng.choice((4, 5))
            inst = random_instance(rng, n=rng.randint(3, 8), k=k, congestion=k - 1)
            assert (solve_kdspc(inst) is None) == (solve_with_congestion(inst) is None)


class TestExtendWithShortest:
    """solve_kdspc's extension of a routed core by the remaining demands' canonical paths."""

    def test_core_paths_replace_canonical_ones_at_their_indices(self, monkeypatch):
        # demand i of the routed core subset takes the core's path for it,
        # and every other demand keeps its canonical path
        subsets, cores = [], []
        monkeypatch.setattr(kernel, "combinations",
                            lambda *args: (subsets.append(s) or s for s in combinations(*args)))
        solve = kernel.solve_with_congestion
        monkeypatch.setattr(kernel, "solve_with_congestion",
                            lambda sub: cores.append(solve(sub)) or cores[-1])
        checked = 0
        for seed in range(60):
            rng = random.Random(seed)
            k = rng.choice((4, 5))
            inst = random_instance(rng, n=rng.randint(3, 8), k=k, congestion=k - 1)
            subsets.clear()
            cores.clear()
            sol = kernel.solve_kdspc(inst)
            if sol is None:
                continue
            subset, core = subsets[-1], cores[-1]
            for i, (path, (s, t)) in enumerate(zip(sol.paths, inst.demands)):
                if i in subset:
                    assert path == core.paths[subset.index(i)]
                else:
                    assert path == next(iter_shortest_paths(inst.dag, s, t))
            checked += 1
        assert checked >= 10

    def test_each_canonical_path_is_found_once_per_call(self, monkeypatch):
        # every demand's path is walked once, up front, however many subsets
        # are tried; counting the walker the kernel calls keeps the test from
        # passing on a route that finds no path at all
        calls = Counter()
        walker = kernel.iter_shortest_paths

        def counting(dag, s, t):
            calls["paths"] += 1
            return walker(dag, s, t)

        monkeypatch.setattr(kernel, "iter_shortest_paths", counting)
        cores = kernel.solve_with_congestion
        monkeypatch.setattr(kernel, "solve_with_congestion",
                            lambda sub: calls.update(["cores"]) or cores(sub))
        several = 0
        for seed in range(60):
            rng = random.Random(seed)
            k = rng.choice((4, 5))
            inst = random_instance(rng, n=rng.randint(3, 8), k=k, congestion=k - 1)
            calls.clear()
            kernel.solve_kdspc(inst)
            assert calls["paths"] == k, seed
            several += calls["cores"] > 1
        assert several >= 5

    def test_extension_that_fails_verification_raises(self, monkeypatch):
        # a core routed at 2d always extends to budget c, so a failed check
        # is a bug to report, not a reason to try the next subset
        inst = Instance(diamond(), ((1, 4), (1, 4), (2, 4), (1, 2)), 3)
        assert solve_kdspc(inst) is not None
        refuted = VerifyReport(False, (Violation("congestion", subject=4),))
        monkeypatch.setattr(kernel, "verify_solution", lambda inst, sol: refuted)
        with pytest.raises(ProjectionInvalid):
            solve_kdspc(inst)

    def test_combined_congestion_within_budget(self):
        # whenever the core verifies at 2d, the extension verifies at c
        for seed in range(60):
            rng = random.Random(seed)
            k = rng.choice((4, 5))
            inst = random_instance(rng, n=rng.randint(3, 8), k=k, congestion=k - 1)
            sol = solve_kdspc(inst)
            if sol is None:
                continue
            profile = congestion_profile(inst, sol)
            assert max(profile.values()) <= inst.congestion


class TestFindHotVertices:
    def test_no_full_load_vertex(self):
        dag = chain(4)
        inst = Instance(dag, ((1, 2), (3, 4)), 2)
        sol = Solution((Path.trace(dag, (1, 2)), Path.trace(dag, (3, 4))))
        assert find_hot_vertices(inst, sol) == ()

    def test_diamond_shared_endpoints(self):
        dag = diamond()
        inst = Instance(dag, ((1, 4), (1, 4)), 2)
        sol = Solution((Path.trace(dag, (1, 2, 4)), Path.trace(dag, (1, 3, 4))))
        assert find_hot_vertices(inst, sol) == (1, 4)

    def test_equals_profile_filter_in_topo_order(self):
        for seed in range(30):
            rng = random.Random(seed)
            inst, sol, _ = build_miss_gadget(rng, hot_columns=rng.choice((4, 5)))
            profile = congestion_profile(inst, sol)
            expected = sorted(
                (v for v, n in profile.items() if n == inst.congestion),
                key=lambda v: inst.dag.position[v],
            )
            assert list(find_hot_vertices(inst, sol)) == expected

    def test_rejects_edge_mode(self):
        # edge loads are keyed by (u, v) pairs, which have no topological
        # position; both entry points refuse the instance before reading one
        dag = diamond()
        inst = Instance(dag, ((1, 4),) * 4, 3, "edge")
        sol = solve_with_congestion(inst)
        assert sol is not None and verify_solution(inst, sol).feasible
        with pytest.raises(InvariantViolation):
            find_hot_vertices(inst, sol)
        with pytest.raises(InvariantViolation):
            concentrate_congestion(inst, sol)


def figure_gadget():
    """Two equal-length routes between two junctions, plus a third path on the pivot.

    Carrier (demand 0) runs over the bypass, donor (demand 1) over the pivot,
    and a second pivot visitor (demand 2) raises the pivot to full load.
    Budget 2, so junctions 2 and 6 (shared by carrier and donor) and the
    pivot 4 are all hot.
    """
    edges = (
        (1, 2, 1),           # s_a -> a_i
        (2, 3, 1), (3, 6, 1),  # bypass
        (2, 4, 1), (4, 6, 1),  # pivot route
        (6, 7, 1),           # a_j -> t_a
        (8, 2, 1),           # s_x -> a_i
        (6, 9, 1),           # a_j -> t_x
        (10, 4, 1),          # s_y -> pivot
        (4, 11, 1),          # pivot -> t_y
    )
    dag = Dag(11, edges)
    inst = Instance(dag, ((1, 7), (8, 9), (10, 11)), 2)
    sol = Solution((
        Path.trace(dag, (1, 2, 3, 6, 7)),
        Path.trace(dag, (8, 2, 4, 6, 9)),
        Path.trace(dag, (10, 4, 11)),
    ))
    return dag, inst, sol


class TestSwapSubpaths:
    def test_identical_subpath_swap_is_noop(self):
        # both paths run the same pivot route, so exchanging the window
        # subpaths changes nothing
        dag, _, _ = figure_gadget()
        inst = Instance(dag, ((1, 7), (8, 9)), 2)
        alt = Solution((
            Path.trace(dag, (1, 2, 4, 6, 7)),
            Path.trace(dag, (8, 2, 4, 6, 9)),
        ))
        assert verify_solution(inst, alt).feasible
        hot = find_hot_vertices(inst, alt)
        assert hot == (2, 4, 6)
        swapped = swap_subpaths(dag, alt, 0, 1, (2, 6))
        assert swapped == alt

    def test_carrier_gains_pivot_and_profile_is_preserved(self):
        dag, inst, sol = figure_gadget()
        assert verify_solution(inst, sol).feasible
        hot = find_hot_vertices(inst, sol)
        assert hot == (2, 4, 6)
        before = congestion_profile(inst, sol)
        swapped = swap_subpaths(dag, sol, 0, 1, (2, 6))
        assert 4 in swapped.paths[0].vertices
        assert swapped.paths[1].vertices == (8, 2, 3, 6, 9)
        assert congestion_profile(inst, swapped) == before
        assert sorted(p.length for p in swapped.paths) == sorted(p.length for p in sol.paths)
        assert verify_solution(inst, swapped).feasible

    def test_random_gadget_swaps_preserve_profile_and_lengths(self):
        for seed in range(40):
            rng = random.Random(seed)
            inst, sol, hot = build_miss_gadget(rng, hot_columns=rng.choice((4, 5, 6)))
            pos = inst.dag.position
            carrier = 0
            on_carrier = set(sol.paths[carrier].vertices)
            missing = [v for v in hot if v not in on_carrier]
            if not missing:
                continue
            pivot = missing[0]
            lo = max((v for v in hot if v in on_carrier and pos[v] < pos[pivot]),
                     key=lambda v: pos[v])
            hi = min((v for v in hot if v in on_carrier and pos[v] > pos[pivot]),
                     key=lambda v: pos[v])
            donors = [i for i, p in enumerate(sol.paths)
                      if {lo, pivot, hi} <= set(p.vertices)]
            swapped = swap_subpaths(inst.dag, sol, carrier, donors[0], (lo, hi))
            assert congestion_profile(inst, swapped) == congestion_profile(inst, sol)
            assert Counter(p.length for p in swapped.paths) == \
                Counter(p.length for p in sol.paths)
            assert verify_solution(inst, swapped).feasible

    def test_every_shared_window_of_a_verified_routing_swaps_cleanly(self):
        # any two paths of a routing exchange the subpath between any two
        # vertices they share, hot or not, and the routing still verifies.
        # The solver's routings mostly share whole subpaths, so grid demands
        # on random shortest paths and the miss gadgets supply real exchanges.
        routings = []
        for seed in range(100):
            rng = random.Random(seed)
            c = rng.randint(2, 3)
            inst = random_instance(rng, n=rng.randint(4, 9), k=rng.randint(c, 5), congestion=c)
            sol = solve_with_congestion(inst)
            if sol is not None:
                routings.append((inst, sol))
        dag = grid(4, 4)
        for seed in range(20):
            rng = random.Random(seed)
            demands = []
            for _ in range(rng.randint(2, 5)):
                rows, cols = sorted(rng.sample(range(4), 2)), sorted(rng.sample(range(4), 2))
                demands.append((4 * rows[0] + cols[0] + 1, 4 * rows[1] + cols[1] + 1))
            sol = Solution(tuple(
                rng.choice(list(iter_shortest_paths(dag, s, t))) for s, t in demands
            ))
            load = max(Counter(v for p in sol.paths for v in p.vertices).values())
            routings.append((Instance(dag, tuple(demands), max(load, 2)), sol))
        for seed in range(10):
            inst, sol, _ = build_miss_gadget(random.Random(seed), hot_columns=4)
            routings.append((inst, sol))
        swaps = exchanges = 0
        for inst, sol in routings:
            assert verify_solution(inst, sol).feasible
            profile = congestion_profile(inst, sol)
            for a, b in permutations(range(inst.k), 2):
                on_b = set(sol.paths[b].vertices)
                shared = [v for v in sol.paths[a].vertices if v in on_b]
                for lo, hi in combinations(shared, 2):
                    swapped = swap_subpaths(inst.dag, sol, a, b, (lo, hi))
                    assert [p.length for p in swapped.paths] == [p.length for p in sol.paths]
                    assert congestion_profile(inst, swapped) == profile
                    assert verify_solution(inst, swapped).feasible
                    swaps += 1
                    exchanges += swapped != sol
        assert swaps >= 300 and exchanges >= 100

    def test_invalid_swaps_rejected(self):
        dag, _, sol = figure_gadget()
        with pytest.raises(InvariantViolation):
            swap_subpaths(dag, sol, 0, 0, (2, 6))  # carrier is donor
        with pytest.raises(InvariantViolation):
            swap_subpaths(dag, sol, 0, 3, (2, 6))  # no path 3
        with pytest.raises(InvariantViolation):
            swap_subpaths(dag, sol, -1, 1, (2, 6))
        with pytest.raises(InvariantViolation):
            swap_subpaths(dag, sol, 0, 1, (6, 2))  # window out of order
        with pytest.raises(InvariantViolation):
            swap_subpaths(dag, sol, 0, 1, (2, 2))  # empty window
        with pytest.raises(InvariantViolation):
            swap_subpaths(dag, sol, 2, 1, (2, 6))  # window off carrier
        with pytest.raises(InvariantViolation):
            swap_subpaths(dag, sol, 0, 2, (2, 6))  # donor misses window
        with pytest.raises(InvariantViolation):
            swap_subpaths(dag, sol, 0, 1, (2, 3))  # 3 is on the carrier only

    def test_unequal_subpaths_are_refused(self):
        # outside a routing of shortest paths the two subpaths may differ in
        # weight, and the swap refuses to change a path's length
        dag = Dag(4, ((1, 2, 1), (1, 3, 2), (2, 4, 1), (3, 4, 1)))
        sol = Solution((Path.trace(dag, (1, 2, 4)), Path.trace(dag, (1, 3, 4))))
        with pytest.raises(InvariantViolation):
            swap_subpaths(dag, sol, 0, 1, (1, 4))


class TestConcentrateCongestion:
    def test_already_covering_path_returned_unchanged(self):
        # path 0 visits all three junctions; the others each skip one, so
        # every junction carries exactly three of the four paths
        tracks = (
            ("h", "h", "h"),
            ("h", "h", "b"),
            ("h", "b", "h"),
            ("b", "h", "h"),
        )
        next_id = 0

        def fresh():
            nonlocal next_id
            next_id += 1
            return next_id

        sources = [fresh() for _ in range(4)]
        junctions = [fresh() for _ in range(3)]
        spots = [
            [junctions[col] if kind == "h" else fresh()
             for col, kind in enumerate(track)]
            for track in tracks
        ]
        sinks = [fresh() for _ in range(4)]
        edges = set()
        routes = []
        for i in range(4):
            route = [sources[i], *spots[i], sinks[i]]
            routes.append(route)
            edges.update((u, v, 1) for u, v in zip(route, route[1:]))
        dag = Dag(next_id, tuple(sorted(edges)))
        inst = Instance(dag, tuple((sources[i], sinks[i]) for i in range(4)), 3)
        sol = Solution(tuple(Path.trace(dag, r) for r in routes))
        assert verify_solution(inst, sol).feasible
        assert find_hot_vertices(inst, sol) == tuple(junctions)
        out, carrier = concentrate_congestion(inst, sol)
        assert out == sol and carrier == 0

    def test_four_hot_vertices_resolve_within_two_swaps(self):
        # smallest shape that forces a real swap: k = 4, slack 1, four junctions
        rng = random.Random(11)
        inst, sol, hot = build_miss_gadget(rng, hot_columns=4)
        out, carrier = concentrate_congestion(inst, sol)
        assert set(hot) <= set(out.paths[carrier].vertices)
        changed = sum(a != b for a, b in zip(sol.paths, out.paths))
        assert changed >= 2  # at least one genuine exchange happened

    def test_covers_hot_vertices_exactly_across_seeds(self):
        # each gadget also runs with its paths shuffled, so the carrier need
        # not be path 0 and several paths pass both extreme hot vertices, and
        # once more on its concentrated routing shuffled alike, where a path
        # covers every hot vertex from the start
        def permuted(inst, sol, order):
            return (Instance(inst.dag, tuple(inst.demands[i] for i in order), inst.congestion),
                    Solution(tuple(sol.paths[i] for i in order)))

        for seed in range(60):
            rng = random.Random(seed)
            gadget, routing, hot = build_miss_gadget(rng, hot_columns=rng.choice((4, 5, 6)))
            order = rng.sample(range(gadget.k), gadget.k)
            concentrated, _ = concentrate_congestion(gadget, routing)
            for inst, sol in ((gadget, routing), permuted(gadget, routing, order),
                              permuted(gadget, concentrated, order)):
                before = congestion_profile(inst, sol)
                out, carrier = concentrate_congestion(inst, sol)
                assert find_hot_vertices(inst, out) == hot
                assert set(hot) <= set(out.paths[carrier].vertices)
                assert congestion_profile(inst, out) == before
                assert verify_solution(inst, out).feasible
                # the lowest-index covering path, else the lowest-index path
                # through the first and last hot vertices
                covering = [i for i, p in enumerate(sol.paths) if set(hot) <= set(p.vertices)]
                ends = [i for i, p in enumerate(sol.paths) if {hot[0], hot[-1]} <= set(p.vertices)]
                assert carrier == (covering or ends)[0]

    def test_swap_that_misses_the_pivot_raises(self, monkeypatch):
        # the carrier must gain the pivot on every swap; a swap that returns
        # the routing unchanged is caught on the first round
        inst, sol, _ = build_miss_gadget(random.Random(11), hot_columns=4)
        monkeypatch.setattr(kernel, "swap_subpaths", lambda dag, sol, *rest: sol)
        with pytest.raises(InvariantViolation, match="hot vertex"):
            concentrate_congestion(inst, sol)

    def test_small_slack_guard(self):
        dag = chain(3)
        inst = Instance(dag, ((1, 3), (1, 3)), 1)  # k = 2 <= 3 * slack = 3
        sol = Solution((Path.trace(dag, (1, 2, 3)),) * 2)
        with pytest.raises(NoDonorFound):
            concentrate_congestion(inst, sol)

    def test_no_hot_vertex_guard(self):
        dag = chain(4)
        inst = Instance(dag, ((1, 2), (3, 4), (1, 2), (3, 4)), 3)
        sol = Solution((
            Path.trace(dag, (1, 2)), Path.trace(dag, (3, 4)),
            Path.trace(dag, (1, 2)), Path.trace(dag, (3, 4)),
        ))
        with pytest.raises(NoDonorFound):
            concentrate_congestion(inst, sol)

    def test_two_hot_vertices_short_circuit(self):
        # junctions h1 = 5 and h2 = 6 each carry three of the four paths and
        # one path carries both, so no swap is needed
        edges = (
            (1, 5, 1), (5, 6, 1), (6, 9, 1),    # P1 track
            (2, 5, 1), (6, 10, 1),               # P2 joins at h1, leaves at h2
            (3, 5, 1), (5, 7, 1), (7, 11, 1),    # P3: h1 then private bypass
            (4, 8, 1), (8, 6, 1), (6, 12, 1),    # P4: private bypass then h2
        )
        dag = Dag(12, edges)
        inst = Instance(dag, ((1, 9), (2, 10), (3, 11), (4, 12)), 3)
        sol = Solution((
            Path.trace(dag, (1, 5, 6, 9)),
            Path.trace(dag, (2, 5, 6, 10)),
            Path.trace(dag, (3, 5, 7, 11)),
            Path.trace(dag, (4, 8, 6, 12)),
        ))
        assert verify_solution(inst, sol).feasible
        assert find_hot_vertices(inst, sol) == (5, 6)
        out, carrier = concentrate_congestion(inst, sol)
        assert out == sol and carrier == 0
