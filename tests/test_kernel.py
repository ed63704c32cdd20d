"""Demand-core solver and the subpath-swapping machinery."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from dspc import (
    ContextInvalid,
    Dag,
    Instance,
    InvariantViolation,
    NoDonorFound,
    Path,
    Solution,
    SwapContext,
    brute_force_oracle,
    canonical_shortest_path,
    concentrate_congestion,
    congestion_profile,
    extend_with_shortest,
    find_hot_vertices,
    iter_shortest_paths,
    solve_kdspc,
    solve_with_congestion,
    swap_subpaths,
    verify_solution,
)
from dspc import kernel
from dspc.randgen import random_dag, random_instance

from helpers import build_miss_gadget, chain, diamond, enumerate_all_paths


class TestCanonicalShortestPath:
    def test_lexicographically_least_among_shortest(self):
        for seed in range(30):
            rng = random.Random(seed)
            dag = random_dag(rng, n=7)
            for s in range(1, 8):
                dist = dag.dist_from(s)
                for t in range(1, 8):
                    if dist[t] == float("inf"):
                        with pytest.raises(InvariantViolation):
                            canonical_shortest_path(dag, s, t)
                        continue
                    got = canonical_shortest_path(dag, s, t)
                    brute = sorted(
                        v for v, w in enumerate_all_paths(dag, s, t)
                        if w == dist[t]
                    )
                    assert got.vertices == brute[0]
                    assert got == next(iter_shortest_paths(dag, s, t))


class TestSolveKdspc:
    def test_zero_slack_routes_everything_by_shortest_paths(self):
        dag = diamond()
        inst = Instance(dag, ((1, 4), (1, 4), (2, 4)), 3)  # c = k, slack 0
        sol = solve_kdspc(inst)
        assert sol is not None
        for path, (s, t) in zip(sol.paths, inst.demands):
            assert path == canonical_shortest_path(dag, s, t)

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
    def test_empty_remainder_is_identity(self):
        dag = chain(3)
        core = Solution((Path.trace(dag, (1, 2, 3)),))
        assert extend_with_shortest([canonical_shortest_path(dag, 1, 3)], core, (0,)) == core

    def test_remainder_gets_its_unique_path(self):
        dag = chain(4)
        shortest = [canonical_shortest_path(dag, s, t) for s, t in ((1, 2), (2, 4))]
        core = Solution((Path.trace(dag, (1, 2)),))
        combined = extend_with_shortest(shortest, core, (0,))
        assert combined.paths[1].vertices == (2, 3, 4)

    def test_each_canonical_path_is_found_once_per_call(self, monkeypatch):
        # on the subset route every demand's path is found once, up front,
        # however many subsets are tried
        calls = Counter()
        canonical = kernel.canonical_shortest_path

        def counting(dag, s, t):
            calls["paths"] += 1
            return canonical(dag, s, t)

        monkeypatch.setattr(kernel, "canonical_shortest_path", counting)
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
            assert calls["paths"] in (0, k), seed
            several += calls["cores"] > 1
        assert several >= 5

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
            assert max(profile.counts.values()) <= inst.congestion


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
                (v for v, n in profile.counts.items() if n == inst.congestion),
                key=lambda v: inst.dag.position[v],
            )
            assert list(find_hot_vertices(inst, sol)) == expected


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
        ctx = SwapContext(dag, hot, 0, 1, pivot=4, window=(2, 6))
        swapped = swap_subpaths(alt, ctx)
        assert swapped == alt

    def test_carrier_gains_pivot_and_profile_is_preserved(self):
        dag, inst, sol = figure_gadget()
        assert verify_solution(inst, sol).feasible
        hot = find_hot_vertices(inst, sol)
        assert hot == (2, 4, 6)
        ctx = SwapContext(dag, hot, 0, 1, pivot=4, window=(2, 6))
        before = congestion_profile(inst, sol).counts
        swapped = swap_subpaths(sol, ctx)
        assert 4 in swapped.paths[0].vertices
        assert swapped.paths[1].vertices == (8, 2, 3, 6, 9)
        assert congestion_profile(inst, swapped).counts == before
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
            ctx = SwapContext(inst.dag, hot, carrier, donors[0], pivot, (lo, hi))
            swapped = swap_subpaths(sol, ctx)
            assert congestion_profile(inst, swapped).counts == \
                congestion_profile(inst, sol).counts
            assert Counter(p.length for p in swapped.paths) == \
                Counter(p.length for p in sol.paths)
            assert verify_solution(inst, swapped).feasible

    def test_invalid_contexts_rejected(self):
        dag, inst, sol = figure_gadget()
        hot = find_hot_vertices(inst, sol)
        with pytest.raises(ContextInvalid):
            swap_subpaths(sol, SwapContext(dag, hot, 0, 0, 4, (2, 6)))
        with pytest.raises(ContextInvalid):
            swap_subpaths(sol, SwapContext(dag, hot, 0, 1, 4, (6, 2)))
        with pytest.raises(ContextInvalid):
            swap_subpaths(sol, SwapContext(dag, hot, 0, 1, 3, (2, 6)))  # 3 not hot
        with pytest.raises(ContextInvalid):
            swap_subpaths(sol, SwapContext(dag, hot, 2, 1, 4, (2, 6)))  # window off carrier
        with pytest.raises(ContextInvalid):
            swap_subpaths(sol, SwapContext(dag, hot, 0, 2, 4, (2, 6)))  # donor misses window


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
        for seed in range(60):
            rng = random.Random(seed)
            inst, sol, hot = build_miss_gadget(rng, hot_columns=rng.choice((4, 5, 6)))
            before = congestion_profile(inst, sol).counts
            out, carrier = concentrate_congestion(inst, sol)
            assert find_hot_vertices(inst, out) == hot
            assert set(hot) <= set(out.paths[carrier].vertices)
            assert congestion_profile(inst, out).counts == before
            assert verify_solution(inst, out).feasible

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
