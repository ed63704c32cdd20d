"""Divide-and-conquer solver, boundary enumeration, merging, and the oracle."""

from __future__ import annotations

import random
import time
import tracemalloc

import pytest

from dspc import (
    Dag,
    DisjointShortestSolver,
    Instance,
    InvariantViolation,
    LimitExceeded,
    OracleTooLarge,
    Path,
    Solution,
    all_pairs_dist,
    brute_force_oracle,
    is_shortest,
    iter_shortest_paths,
    merge_check,
    solve_disjoint_shortest,
    split_interval,
    verify_solution,
)
from dspc import exact
from dspc.exact import _iter_assignments, count_shortest_paths, tight_subgraph
from dspc.randgen import random_dag, random_instance

from helpers import chain, count_capped_assignments, diamond, enumerate_all_paths, grid_dag


class TestSplitInterval:
    def test_even_split(self):
        left, right = split_interval((0, 3))
        assert left == (0, 1) and right == (2, 3)

    def test_odd_split_gives_ceiling_to_left(self):
        left, right = split_interval((0, 4))
        assert left == (0, 2) and right == (3, 4)

    def test_two_element_interval(self):
        assert split_interval((5, 6)) == ((5, 5), (6, 6))

    def test_too_short_rejected(self):
        with pytest.raises(InvariantViolation):
            split_interval((2, 2))


class TestEnumerateBoundarySets:
    """The solver's cut-edge selection and its per-demand boundary assignments."""

    def test_two_crossing_edges_one_demand(self):
        dag = Dag(4, ((1, 3, 1), (2, 4, 1), (1, 2, 1), (3, 4, 1)))
        # order is (1,2,3,4); cutting after position 1 leaves (1,3) and (2,4)
        # crossing, in edge-list order
        crossing = DisjointShortestSolver(dag)._boundary_edges((0, 1), (2, 3))
        assert crossing == ((1, 3, 1), (2, 4, 1))
        assert list(_iter_assignments([crossing])) == [((1, 3, 1),), ((2, 4, 1),)]

    def test_shared_only_edge_yields_nothing(self):
        only = [(1, 2, 1)]
        assert list(_iter_assignments([only, only])) == []
        assert list(_iter_assignments([only, only], 2)) == [((1, 2, 1), (1, 2, 1))]
        assert list(_iter_assignments([only] * 3, 2)) == []

    def test_counts_match_injective_enumeration(self):
        for seed in range(30):
            rng = random.Random(seed)
            dag = random_dag(rng, n=rng.randint(2, 8))
            n = dag.vertex_count
            mid = rng.randint(0, n - 2)
            crossing = DisjointShortestSolver(dag)._boundary_edges((0, mid), (mid + 1, n - 1))
            for t in (1, 2, 3):
                for c in (1, 2):
                    got = sum(1 for _ in _iter_assignments([crossing] * t, c))
                    assert got == count_capped_assignments([crossing] * t, c)

    def test_lexicographic_by_demand_then_edge(self):
        edges = [(1, 3, 1), (1, 4, 1), (2, 3, 1), (2, 4, 1)]
        assert list(_iter_assignments([edges, edges])) == [
            ((1, 3, 1), (2, 4, 1)),
            ((1, 4, 1), (2, 3, 1)),
            ((2, 3, 1), (1, 4, 1)),
            ((2, 4, 1), (1, 3, 1)),
        ]
        # at congestion 2 no pick of two edges is capped, so all come out
        assert list(_iter_assignments([edges, edges], 2)) == [
            (a, b) for a in edges for b in edges
        ]
        # three slots: an edge may repeat once, never twice
        capped = list(_iter_assignments([edges] * 3, 2))
        assert capped == sorted(capped)
        assert ((1, 3, 1), (1, 3, 1), (2, 4, 1)) in capped
        assert ((1, 3, 1), (1, 4, 1), (1, 3, 1)) not in capped

    def test_edge_mode_caps_edges_not_tails(self):
        # two distinct cut edges out of vertex 1: each edge is used once, but
        # the shared tail twice
        edges = [(1, 3, 1), (1, 4, 1)]
        assert list(_iter_assignments([edges, edges], 1, "edge")) == [
            ((1, 3, 1), (1, 4, 1)),
            ((1, 4, 1), (1, 3, 1)),
        ]
        assert list(_iter_assignments([edges, edges], 1, "vertex")) == []


class TestMergeCheck:
    def test_chain_merge_accepted(self):
        dag = chain(4)
        left = Solution((Path.trace(dag, (1, 2)),))
        right = Solution((Path.trace(dag, (3, 4)),))
        merged = merge_check(left, right, ((2, 3, 1),), [(1, 4)])
        assert merged is not None
        assert merged.paths[0].vertices == (1, 2, 3, 4)
        assert merged.paths[0].length == 3

    def test_detour_is_never_a_candidate(self, monkeypatch):
        # the heavy cut edge (2, 4, 5) is on no shortest 1->4 path, so the
        # solver never offers it and merge_check needs no length test
        dag = Dag(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (2, 4, 5)))
        offered = []

        def recording(candidates, *args):
            offered.extend(candidates)
            return _iter_assignments(candidates, *args)

        monkeypatch.setattr(exact, "_iter_assignments", recording)
        sol = solve_disjoint_shortest(dag, [(1, 4)])
        assert [p.vertices for p in sol.paths] == [(1, 2, 3, 4)]
        assert sol.paths[0].length == 3
        assert offered and all((2, 4, 5) not in slot for slot in offered)

    def test_ends_must_meet_the_cut_edge(self):
        dag = chain(4)
        left = Solution((Path.trace(dag, (1,)),))
        right = Solution((Path.trace(dag, (3, 4)),))
        assert merge_check(left, right, ((2, 3, 1),), [(1, 4)]) is None

    def test_empty_cut_rejected(self):
        dag = chain(2)
        sol = Solution((Path.trace(dag, (1,)),))
        with pytest.raises(InvariantViolation):
            merge_check(sol, sol, (), [])

    def test_shared_vertex_accepted_up_to_congestion(self):
        # both demands run 1 -> 3 -> 4 on the diamond and share every vertex
        dag = diamond()
        left = Solution((Path.trace(dag, (1,)),) * 2)
        right = Solution((Path.trace(dag, (3, 4)),) * 2)
        cut = ((1, 3, 1), (1, 3, 1))
        assert merge_check(left, right, cut, [(1, 4), (1, 4)]) is None
        merged = merge_check(left, right, cut, [(1, 4), (1, 4)], congestion=2)
        assert [p.vertices for p in merged.paths] == [(1, 3, 4), (1, 3, 4)]

    def test_edge_mode_counts_cut_edges_not_vertices(self):
        dag = diamond()
        left = Solution((Path.trace(dag, (1,)),) * 2)
        shared = Solution((Path.trace(dag, (3, 4)),) * 2)
        cut = ((1, 3, 1), (1, 3, 1))
        assert merge_check(left, shared, cut, [(1, 4), (1, 4)], 1, "edge") is None
        assert merge_check(left, shared, cut, [(1, 4), (1, 4)], 2, "edge") is not None
        # distinct cut edges: vertices 1 and 4 carry both paths, no edge does
        arms = Solution((Path.trace(dag, (2, 4)), Path.trace(dag, (3, 4))))
        cut = ((1, 2, 1), (1, 3, 1))
        merged = merge_check(left, arms, cut, [(1, 4), (1, 4)], 1, "edge")
        assert [p.vertices for p in merged.paths] == [(1, 2, 4), (1, 3, 4)]
        assert merge_check(left, arms, cut, [(1, 4), (1, 4)], 1, "vertex") is None

    def test_merged_solutions_verify_at_one(self):
        for seed in range(40):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(2, 8), k=rng.randint(1, 3),
                                   congestion=1)
            sol = solve_disjoint_shortest(inst.dag, inst.demands)
            if sol is not None:
                assert verify_solution(inst, sol).feasible


class TestSolveDisjointShortest:
    def test_chain_unique_path(self):
        sol = solve_disjoint_shortest(chain(3), [(1, 3)])
        assert sol.paths[0].vertices == (1, 2, 3)

    def test_diamond_unreachable_pair(self):
        assert solve_disjoint_shortest(diamond(), [(1, 4), (2, 3)]) is None

    def test_grid_two_demands_matches_oracle(self):
        dag, vid = grid_dag(3, 3)
        pairs = ((vid[(0, 0)], vid[(2, 2)]), (vid[(0, 1)], vid[(2, 1)]))
        sol = solve_disjoint_shortest(dag, pairs)
        want = brute_force_oracle(Instance(dag, pairs, 1))
        assert (sol is None) == (want is None)
        if sol is not None:
            dm = all_pairs_dist(dag)
            for path, expect in zip(sol.paths, want.paths):
                assert path.length == expect.length == dm.dist(path.start, path.end)

    def test_equal_demands_get_distinct_paths(self):
        # the crossing (1,4) demands are identical; mapping sub-results back
        # by demand value would route both along the same arm and overload it
        dag = diamond()
        demands = ((2, 2), (3, 3), (1, 4), (1, 4))
        sol = solve_disjoint_shortest(dag, demands, congestion=2)
        assert sol is not None
        assert verify_solution(Instance(dag, demands, 2), sol).feasible
        assert solve_disjoint_shortest(dag, demands, congestion=1) is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvariantViolation):
            solve_disjoint_shortest(chain(3), [(1, 3)], mode="arc")

    def test_cap_guard(self):
        dag = chain(8)
        with pytest.raises(LimitExceeded):
            solve_disjoint_shortest(dag, [(1, 2)] * 7)

    def test_deterministic(self):
        for seed in range(15):
            rng = random.Random(seed)
            inst = random_instance(rng, n=8, k=3, congestion=1)
            first = solve_disjoint_shortest(inst.dag, inst.demands)
            second = solve_disjoint_shortest(inst.dag, inst.demands)
            assert first == second

    def test_agrees_with_oracle_and_verifies(self):
        for seed in range(150):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 8), k=rng.randint(1, 3),
                                   congestion=1)
            got = solve_disjoint_shortest(inst.dag, inst.demands)
            want = brute_force_oracle(inst)
            assert (got is None) == (want is None)
            if got is not None:
                assert verify_solution(inst, got).feasible
                dm = all_pairs_dist(inst.dag)
                assert all(is_shortest(p, dm) for p in got.paths)

    def test_crossing_prefix_is_globally_shortest(self):
        # prefix-optimality of returned paths across the root split
        for seed in range(30):
            rng = random.Random(seed)
            inst = random_instance(rng, n=8, k=2, congestion=1)
            sol = solve_disjoint_shortest(inst.dag, inst.demands)
            if sol is None:
                continue
            dm = all_pairs_dist(inst.dag)
            for path in sol.paths:
                for cut in range(1, len(path.vertices) + 1):
                    assert is_shortest(Path.trace(inst.dag, path.vertices[:cut]), dm)


class TestTightSubgraph:
    def test_reach_masks_match_path_enumeration(self):
        # bit y of reach[x]: x and y lie on shortest s-t paths and a path of
        # edges of shortest s-t paths runs from x to y
        for seed in range(40):
            rng = random.Random(seed)
            dag = random_dag(rng, n=rng.randint(1, 7))
            n = dag.vertex_count
            paths = {
                (x, y): enumerate_all_paths(dag, x, y)
                for x in range(1, n + 1) for y in range(1, n + 1)
            }
            for s in range(1, n + 1):
                for t in range(1, n + 1):
                    got = tight_subgraph(dag, s, t)
                    length = min((w for _, w in paths[s, t]), default=None)
                    if length is None:
                        assert got is None
                        continue
                    assert got.length == length
                    shortest = [p for p, w in paths[s, t] if w == length]
                    on = {v for p in shortest for v in p}
                    tight = {e for p in shortest for e in zip(p, p[1:])}
                    for x in range(1, n + 1):
                        for y in range(1, n + 1):
                            linked = x == y or any(
                                set(zip(p, p[1:])) <= tight for p, _ in paths[x, y]
                            )
                            want = x in on and y in on and linked
                            assert bool(got.reach[x] >> y & 1) == want, (seed, s, t, x, y)

    def test_three_thousand_vertex_chain(self):
        # per-demand sweeps and masks: 2 demands at c = 2 solve in about
        # 0.2 s with an 8 MB traced peak, where an all-pairs table of this
        # chain alone takes seconds and peaks near 190 MB
        demands = ((1, 3000), (2, 2999))
        started = time.perf_counter()
        sol = solve_disjoint_shortest(chain(3000), demands, congestion=2)
        elapsed = time.perf_counter() - started
        assert [p.vertices for p in sol.paths] == [tuple(range(1, 3001)), tuple(range(2, 3000))]
        assert verify_solution(Instance(chain(3000), demands, 2), sol).feasible
        assert elapsed < 1.5
        tracemalloc.start()
        try:
            solve_disjoint_shortest(chain(3000), demands, congestion=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20


class TestMemoStore:
    def test_entries_are_write_once(self):
        from dspc import MemoStore

        store = MemoStore()
        key = ((0, 0), ((1, 1),))
        store.put(key, None)
        with pytest.raises(InvariantViolation):
            store.put(key, None)

    def test_yes_entries_replay_on_induced_subgraph(self):
        for seed in range(25):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(2, 8), k=rng.randint(1, 3),
                                   congestion=1)
            solver = DisjointShortestSolver(inst.dag)
            solver.solve(inst.demands)
            order = inst.dag.order
            for ((lo, hi), pairs), entry in solver.memo.entries.items():
                if entry is None:
                    continue
                assert pairs == tuple(sorted(pairs))
                inside = set(order[lo:hi + 1])
                remap = {v: i + 1 for i, v in enumerate(sorted(inside))}
                sub_edges = tuple(
                    (remap[u], remap[v], w)
                    for u, v, w in inst.dag.edges
                    if u in inside and v in inside
                )
                sub_dag = Dag(len(inside), sub_edges, transformed=inst.dag.transformed)
                sub_inst = Instance(
                    sub_dag,
                    tuple((remap[s], remap[t]) for s, t in pairs),
                    1,
                )
                replayed = Solution(tuple(
                    Path.trace(sub_dag, tuple(remap[v] for v in p.vertices))
                    for p in entry.paths
                ))
                assert verify_solution(sub_inst, replayed).feasible


class TestBruteForceOracle:
    def test_single_reachable_demand(self):
        dag = chain(4)
        sol = brute_force_oracle(Instance(dag, ((1, 4),), 1))
        assert sol is not None and sol.paths[0].length == 3

    def test_diamond_double_demand_infeasible_at_one(self):
        assert brute_force_oracle(Instance(diamond(), ((1, 4), (1, 4)), 1)) is None

    def test_diamond_double_demand_feasible_at_two(self):
        # Checking all four combinations by hand: ([1,2,4],[1,2,4]) already
        # fits the budget (every load is 2), so it is the lexicographically
        # first feasible combination; the two-arm routing works as well.
        sol = brute_force_oracle(Instance(diamond(), ((1, 4), (1, 4)), 2))
        assert [p.vertices for p in sol.paths] == [(1, 2, 4), (1, 2, 4)]
        arms = Solution((Path.trace(diamond(), (1, 2, 4)), Path.trace(diamond(), (1, 3, 4))))
        assert verify_solution(Instance(diamond(), ((1, 4), (1, 4)), 2), arms).feasible

    def test_too_large_guard(self):
        # 21 stacked diamonds give 2^21 > 10^6 shortest paths
        edges = []
        for i in range(21):
            base = 3 * i
            edges += [(base + 1, base + 2, 1), (base + 1, base + 3, 1),
                      (base + 2, base + 4, 1), (base + 3, base + 4, 1)]
        dag = Dag(3 * 21 + 1, tuple(edges))
        assert count_shortest_paths(dag, 1, 64) == 2 ** 21
        with pytest.raises(OracleTooLarge):
            brute_force_oracle(Instance(dag, ((1, 64),), 1))

    def test_unreachable_demand_absent(self):
        assert brute_force_oracle(Instance(chain(3), ((3, 1),), 1)) is None


class TestShortestPathHelpers:
    def test_count_matches_enumeration(self):
        for seed in range(30):
            rng = random.Random(seed)
            dag = random_dag(rng, n=7)
            dm = all_pairs_dist(dag)
            for s in range(1, 8):
                for t in range(1, 8):
                    listed = list(iter_shortest_paths(dag, s, t))
                    brute = [
                        v for v, w in enumerate_all_paths(dag, s, t)
                        if w == dm.dist(s, t)
                    ]
                    assert count_shortest_paths(dag, s, t) == len(listed) == len(brute)
                    assert [p.vertices for p in listed] == sorted(brute)
