"""Pebbling search with its pin pass, move check and dead-state memo; the brute-force oracle."""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import Counter

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
    brute_force_oracle,
    iter_shortest_paths,
    merge_check,
    solve_disjoint_shortest,
    verify_solution,
)
from dspc import exact
from dspc.exact import count_shortest_paths
from dspc.randgen import grid, random_dag, random_instance, search_heavy_instance

from helpers import chain, diamond, enumerate_all_paths, grid_dag, is_shortest


class TestMergeCheck:
    """One move of the pebbling search: state, movers, their edges, budget."""

    def test_chain_merge_accepted(self):
        assert merge_check((1, 3), [0], ((1, 2, 1),)) == (2, 3)
        # a mover's head may hold pebbles as long as the budget allows
        assert merge_check((2, 3), [0], ((2, 3, 1),), congestion=2) == (3, 3)

    def test_detour_is_never_a_candidate(self, monkeypatch):
        # the heavy edge (2, 4, 5) is on no shortest 1->4 path, so the search
        # never offers it and merge_check needs no length test; the second
        # route 1-5-3-4 keeps the demand from being pinned before the search
        dag = Dag(5, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (2, 4, 5), (1, 5, 1), (5, 3, 1)))
        offered = []

        def recording(state, movers, edges, *args):
            offered.extend(edges)
            return merge_check(state, movers, edges, *args)

        monkeypatch.setattr(exact, "merge_check", recording)
        sol = solve_disjoint_shortest(dag, [(1, 4)])
        assert [p.vertices for p in sol.paths] == [(1, 2, 3, 4)]
        assert sol.paths[0].length == 3
        assert offered and (2, 4, 5) not in offered

    def test_ends_must_meet_the_cut_edge(self):
        # every mover must sit on the tail of the edge it takes
        with pytest.raises(InvariantViolation):
            merge_check((1, 2), [1], ((1, 3, 1),))
        with pytest.raises(InvariantViolation):
            merge_check((1, 1), [0, 1], ((1, 2, 1), (2, 3, 1)))

    def test_empty_cut_rejected(self):
        with pytest.raises(InvariantViolation):
            merge_check((1,), [], ())
        with pytest.raises(InvariantViolation):
            merge_check((1, 1), [0, 1], ((1, 2, 1),))

    def test_shared_vertex_accepted_up_to_congestion(self):
        # two pebbles leave vertex 1 of the diamond for the same head
        cut = ((1, 3, 1), (1, 3, 1))
        assert merge_check((1, 1), [0, 1], cut) is None
        assert merge_check((1, 1), [0, 1], cut, congestion=2) == (3, 3)
        # the arms split the load
        assert merge_check((1, 1), [0, 1], ((1, 2, 1), (1, 3, 1))) == (2, 3)

    def test_finished_pebbles_count_on_their_vertex(self):
        # pebble 1 rests on its terminal 3 (demand (3, 3) or a finished
        # walk); a pebble arriving at 3 makes its load 2 in vertex mode
        assert merge_check((1, 3), [0], ((1, 3, 1),)) is None
        assert merge_check((1, 3), [0], ((1, 3, 1),), congestion=2) == (3, 3)
        # pebble 2 rests on 3 too: three pebbles on 3 exceed a budget of 2
        assert merge_check((1, 1, 3), [0, 1], ((1, 3, 1), (1, 2, 1)), 2) == (3, 2, 3)
        assert merge_check((1, 1, 3), [0, 1], ((1, 3, 1), (1, 3, 1)), 2) is None
        # edge mode counts no vertex
        assert merge_check((1, 3), [0], ((1, 3, 1),), 1, "edge") == (3, 3)

    def test_fixed_load_adds_to_every_count(self):
        # one pinned path already holds vertex 2 and edge (1, 2, 1)
        assert merge_check((1,), [0], ((1, 2, 1),), 1, "vertex", {2: 1}) is None
        assert merge_check((1,), [0], ((1, 2, 1),), 2, "vertex", {2: 1}) == (2,)
        assert merge_check((1,), [0], ((1, 2, 1),), 1, "edge", {(1, 2, 1): 1}) is None
        assert merge_check((1,), [0], ((1, 2, 1),), 1, "edge", {2: 1}) == (2,)

    def test_edge_mode_counts_cut_edges_not_vertices(self):
        # a mover may join pebbles on its head: no edge is shared
        assert merge_check((1, 4), [0], ((1, 4, 2),), 1, "edge") == (4, 4)
        assert merge_check((1, 4), [0], ((1, 4, 2),), 1, "vertex") is None
        # two movers share head 4 only by sharing edge (1, 4), capped at c
        shared = ((1, 4, 2), (1, 4, 2))
        assert merge_check((1, 1), [0, 1], shared, 1, "edge") is None
        assert merge_check((1, 1), [0, 1], shared, 2, "edge") == (4, 4)
        assert merge_check((1, 1, 1), [0, 1, 2], shared + ((1, 4, 2),), 2, "edge") is None
        assert merge_check((1, 1), [0, 1], ((1, 2, 1), (1, 3, 1)), 1, "edge") == (2, 3)

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
            for path, expect in zip(sol.paths, want.paths):
                assert path.length == expect.length
                assert is_shortest(dag, path)

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

    def test_demand_count_is_not_capped(self, caplog):
        # seven demands on one edge are decided, not refused: the endpoint
        # check rejects them at c = 1 and they all fit at c = 7
        dag, demands = chain(8), ((1, 2),) * 7
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            assert solve_disjoint_shortest(dag, demands) is None
        assert caplog.messages == ["infeasible: endpoint overload at vertex 1"]
        assert brute_force_oracle(Instance(dag, demands, 1)) is None
        sol = solve_disjoint_shortest(dag, demands, congestion=7)
        assert sol == brute_force_oracle(Instance(dag, demands, 7))

    def test_edge_mode_endpoint_overload(self, caplog):
        # in edge mode a vertex carries c paths per out-edge from it and per
        # in-edge into it; the diamond's source and sink have two of each
        dag = diamond()
        for demands, vertex in ((((1, 4),) * 3, 1), (((2, 4), (3, 4), (1, 4)), 4)):
            caplog.clear()
            with caplog.at_level("DEBUG", logger="dspc.exact"):
                assert solve_disjoint_shortest(dag, demands, mode="edge") is None
            assert caplog.messages == [f"infeasible: endpoint overload at vertex {vertex}"]
            assert brute_force_oracle(Instance(dag, demands, 1, "edge")) is None
        sol = solve_disjoint_shortest(dag, ((1, 4),) * 2, mode="edge")
        assert sol == brute_force_oracle(Instance(dag, ((1, 4),) * 2, 1, "edge"))
        # thirty pebbles on the forking source are refused up front; the search
        # would try 2^30 moves from there, none of which fits
        assert solve_disjoint_shortest(dag, ((1, 4),) * 30, mode="edge") is None

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
                assert all(is_shortest(inst.dag, p) for p in got.paths)

    def test_crossing_prefix_is_globally_shortest(self):
        # prefix-optimality of returned paths across the root split
        for seed in range(30):
            rng = random.Random(seed)
            inst = random_instance(rng, n=8, k=2, congestion=1)
            sol = solve_disjoint_shortest(inst.dag, inst.demands)
            if sol is None:
                continue
            for path in sol.paths:
                for cut in range(1, len(path.vertices) + 1):
                    assert is_shortest(inst.dag, Path.trace(inst.dag, path.vertices[:cut]))


class TestPinPass:
    """Forced demands are routed before the search and fill part of the budget."""

    def test_unique_path_is_routed_without_search(self):
        solver = DisjointShortestSolver(chain(4))
        sol = solver.solve([(1, 4)])
        assert [p.vertices for p in sol.paths] == [(1, 2, 3, 4)]
        assert solver.pinned == (0,) and not solver.memo.entries

    def test_saturated_edge_pins_a_second_demand(self):
        # (1, 3) has one path and fills edge (2, 3); (2, 5) then has only 2-4-5
        dag = Dag(5, ((1, 2, 1), (2, 3, 1), (2, 4, 1), (3, 5, 1), (4, 5, 1)))
        solver = DisjointShortestSolver(dag, mode="edge")
        sol = solver.solve([(2, 5), (1, 3)])
        assert [p.vertices for p in sol.paths] == [(2, 4, 5), (1, 2, 3)]
        assert solver.pinned == (0, 1) and not solver.memo.entries
        # at c = 2 the second demand keeps both routes and is searched
        solver = DisjointShortestSolver(dag, congestion=2, mode="edge")
        assert [p.vertices for p in solver.solve([(2, 5), (1, 3)]).paths] == [(2, 3, 5), (1, 2, 3)]
        assert solver.pinned == (1,)

    def test_no_residual_path_is_infeasible(self, caplog):
        # the pinned path 1-2-3 fills both middle vertices of (4, 5)
        dag = Dag(5, ((1, 2, 1), (2, 3, 1), (4, 2, 1), (4, 3, 1), (2, 5, 1), (3, 5, 1)))
        solver = DisjointShortestSolver(dag)
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            assert solver.solve([(1, 3), (4, 5)]) is None
        assert caplog.messages == ["infeasible: demand 1 has no shortest path left"]
        assert solver.pinned == (0,) and not solver.memo.entries
        assert solver.solve([(4, 5)]) is not None and solver.pinned == ()

    def test_pinned_path_through_a_free_source(self, caplog):
        # 1-2-3 is forced and runs through vertex 2, where free demands start
        dag = Dag(6, ((1, 2, 1), (2, 3, 1), (2, 4, 1), (2, 5, 1), (4, 6, 1), (5, 6, 1)))
        assert solve_disjoint_shortest(dag, [(1, 3), (2, 6)]) is None
        assert brute_force_oracle(Instance(dag, ((1, 3), (2, 6)), 1)) is None
        # at c = 2 the source holds the pinned path and two free pebbles
        demands = ((1, 3), (2, 6), (2, 6))
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            assert solve_disjoint_shortest(dag, demands, congestion=2) is None
        assert caplog.messages == ["infeasible: pinned paths overload vertex 2"]
        assert brute_force_oracle(Instance(dag, demands, 2)) is None
        assert solve_disjoint_shortest(dag, demands, congestion=3) is not None

    def test_zero_length_and_duplicate_demands(self, caplog):
        # (2, 2) holds vertex 2, which leaves (1, 4) the arm through 3
        solver = DisjointShortestSolver(diamond())
        sol = solver.solve([(2, 2), (1, 4)])
        assert [p.vertices for p in sol.paths] == [(2,), (1, 3, 4)]
        assert solver.pinned == (0, 1) and not solver.memo.entries
        # in edge mode (2, 2) takes no edge
        solver = DisjointShortestSolver(diamond(), mode="edge")
        assert [p.vertices for p in solver.solve([(2, 2), (1, 4)]).paths] == [(2,), (1, 2, 4)]
        assert solver.pinned == (0,)
        # equal unique demands are both pinned and share the load
        solver = DisjointShortestSolver(chain(3), congestion=2, mode="edge")
        assert len(solver.solve([(1, 3), (1, 3)]).paths) == 2 and solver.pinned == (0, 1)
        # two forced paths that start and end apart still share edge (3, 4)
        apart = Dag(6, ((1, 3, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (4, 6, 1)))
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            assert solve_disjoint_shortest(chain(3), [(1, 3), (1, 3)], mode="edge") is None
            assert solve_disjoint_shortest(chain(3), [(1, 3), (1, 3)]) is None
            assert solve_disjoint_shortest(apart, [(1, 5), (2, 6)], mode="edge") is None
        assert caplog.messages == [
            "infeasible: endpoint overload at vertex 1",
            "infeasible: endpoint overload at vertex 1",
            "infeasible: pinned paths overload edge (3, 4, 1)",
        ]

    def test_search_exhausted_is_logged(self, caplog):
        # 3x3 grid: (1, 6) must avoid 2 and so ends on 4-5-6, which leaves
        # (2, 9) no way down
        solver = DisjointShortestSolver(grid(3, 3))
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            assert solver.solve([(1, 6), (2, 9)]) is None
        dead = len(solver.memo.entries)
        assert solver.pinned == () and dead > 0
        assert caplog.messages == [f"infeasible: search exhausted after {dead} dead states"]

    def test_agrees_with_oracle_on_every_route(self, monkeypatch):
        # an instance is decided by the pin pass alone, pinned in part and
        # then searched, or searched with nothing pinned; every route is
        # taken at least 10 times per mode
        searched = []
        search = DisjointShortestSolver._search

        def recording(self, start, *args):
            searched.append(bool(start))
            return search(self, start, *args)

        monkeypatch.setattr(DisjointShortestSolver, "_search", recording)
        for mode in ("vertex", "edge"):
            routes = Counter()
            for seed in range(4000):
                rng = random.Random(seed)
                k = rng.randint(1, 5)
                inst = random_instance(
                    rng, n=rng.randint(1, 9), k=k, congestion=rng.randint(1, k), mode=mode,
                    edge_prob=rng.choice((0.3, 0.5, 0.7)), max_weight=rng.randint(1, 3),
                )
                searched.clear()
                solver = DisjointShortestSolver(inst.dag, congestion=inst.congestion, mode=mode)
                got = solver.solve(inst.demands)
                want = brute_force_oracle(inst)
                assert (got is None) == (want is None), (mode, seed)
                if got is not None:
                    assert verify_solution(inst, got).feasible, (mode, seed)
                routes[bool(solver.pinned), any(searched)] += 1
            assert min(routes[True, False], routes[True, True], routes[False, True]) >= 10, routes


class TestTightSubgraph:
    """Pebbles move along the tight edges of their own demands."""

    def test_three_thousand_vertex_chain(self):
        # one backward sweep per demand and 2,999 moves, far past the
        # recursion limit, on the search's explicit stack; an all-pairs
        # table of this chain alone takes seconds and peaks near 190 MB.
        # Bypasses 1-3001-3 and 2-3002-4 give each demand a second shortest
        # path, so neither is pinned and the search makes every move.
        dag = Dag(3002, chain(3000).edges + ((1, 3001, 1), (3001, 3, 1), (2, 3002, 1), (3002, 4, 1)))
        demands = ((1, 3000), (2, 2999))
        solver = DisjointShortestSolver(dag, congestion=2)
        started = time.perf_counter()
        sol = solver.solve(demands)
        elapsed = time.perf_counter() - started
        assert solver.pinned == ()
        assert [p.vertices for p in sol.paths] == [tuple(range(1, 3001)), tuple(range(2, 3000))]
        assert verify_solution(Instance(dag, demands, 2), sol).feasible
        assert elapsed < 1.5
        tracemalloc.start()
        try:
            solver.solve(demands)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20


class TestMemoStore:
    def test_entries_are_write_once(self):
        from dspc import MemoStore

        store = MemoStore()
        key = (1, 1)
        store.put(key)
        with pytest.raises(InvariantViolation):
            store.put(key)

    def test_budget_of_dead_states(self, monkeypatch):
        # the 3x3 grid of test_search_exhausted_is_logged: its search records
        # some number of dead states, and one fewer allowed stops the solve
        solver = DisjointShortestSolver(grid(3, 3))
        assert solver.solve([(1, 6), (2, 9)]) is None
        dead = len(solver.memo.entries)
        assert 0 < dead < exact.MAX_DEAD_STATES
        monkeypatch.setattr(exact, "MAX_DEAD_STATES", dead)
        assert solver.solve([(1, 6), (2, 9)]) is None
        monkeypatch.setattr(exact, "MAX_DEAD_STATES", dead - 1)
        with pytest.raises(LimitExceeded, match=f"after {dead - 1} dead states"):
            solver.solve([(1, 6), (2, 9)])
        assert len(solver.memo.entries) == dead - 1

    def test_budget_of_moves_checked(self, monkeypatch):
        # edge mode, c = 1: twelve pebbles from twelve sources meet at one
        # vertex with two out-edges, and none of the 2^12 moves from there
        # fits; the memo stays small, so only the move budget bounds the work
        k = 12
        u, a, b = k + 1, k + 2, k + 3
        edges = [(i, u, 1) for i in range(1, k + 1)] + [(u, a, 1), (u, b, 1)]
        edges += [(x, b + i, 1) for i in range(1, k + 1) for x in (a, b)]
        dag, demands = Dag(b + k, tuple(edges)), [(i, b + i) for i in range(1, k + 1)]
        solver = DisjointShortestSolver(dag, mode="edge")
        checked = []
        real = exact.merge_check

        def counting(*args):
            checked.append(None)
            return real(*args)

        monkeypatch.setattr(exact, "merge_check", counting)
        assert solver.solve(demands) is None
        assert brute_force_oracle(Instance(dag, tuple(demands), 1, "edge")) is None
        assert len(checked) == k + 2**k
        assert len(solver.memo.entries) == k + 1
        monkeypatch.setattr(exact, "MAX_MOVES_CHECKED", k + 2**k)
        assert solver.solve(demands) is None
        monkeypatch.setattr(exact, "MAX_MOVES_CHECKED", k + 2**k - 1)
        with pytest.raises(LimitExceeded, match=f"after {k + 2**k - 1} moves checked"):
            solver.solve(demands)

    def test_dead_states_are_infeasible(self):
        # a dead state, restated as demands (position, terminal) at the same
        # budget and mode next to the pinned demands, is an instance the
        # oracle cannot route
        for mode in ("vertex", "edge"):
            dead = 0
            for seed in range(40):
                rng = random.Random(seed)
                k = rng.randint(2, 4)
                c = rng.randint(1, 2) if mode == "vertex" else 1
                inst = search_heavy_instance(rng, k, c, mode)
                solver = DisjointShortestSolver(inst.dag, congestion=c, mode=mode)
                solver.solve(inst.demands)
                pinned = tuple(inst.demands[i] for i in solver.pinned)
                terminals = [t for i, (_, t) in enumerate(inst.demands) if i not in solver.pinned]
                for state in solver.memo.entries:
                    restated = Instance(inst.dag, tuple(zip(state, terminals)) + pinned, c, mode)
                    assert brute_force_oracle(restated) is None, (mode, seed, state)
                    dead += 1
            assert dead >= 10, mode


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
            for s in range(1, 8):
                dist = dag.dist_from(s)
                for t in range(1, 8):
                    listed = list(iter_shortest_paths(dag, s, t))
                    brute = [v for v, w in enumerate_all_paths(dag, s, t) if w == dist[t]]
                    assert count_shortest_paths(dag, s, t) == len(listed) == len(brute)
                    assert [p.vertices for p in listed] == sorted(brute)
