"""Pebbling search with its pin pass, move check and dead-state memo; the brute-force oracle."""

from __future__ import annotations

import random
import sys
import time
import tracemalloc
from collections import Counter
from functools import partial
from itertools import product
from math import factorial, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    mcc_to_planar_edsp,
    solve_disjoint_shortest,
    verify_solution,
)
from dspc import exact
from dspc.exact import count_shortest_paths, fitting_moves, merge_check, sweep_order
from dspc.hardness import find_colorful_clique, plant_colorful_clique, random_colored_graph
from dspc.randgen import (
    bottleneck_instance,
    grid,
    random_dag,
    random_instance,
    search_heavy_instance,
)

from helpers import (
    block_family_draw,
    chain,
    contested_instance,
    diamond,
    enumerate_all_paths,
    grid_dag,
    grid_family_draw,
    is_shortest,
    large_random_draw,
    lifo_relabelling,
    relabel,
    relabelled_search_heavy_instance,
    search_heavy_draw,
)


@pytest.fixture
def search_only(monkeypatch):
    """Solves leave every free demand that the first descent cannot route to the search."""
    monkeypatch.setattr(DisjointShortestSolver, "_route_in_turn", lambda *args: None)


class TestMergeCheck:
    """One move of the pebbling search: state, movers, their edges, budget."""

    def test_chain_merge_accepted(self):
        assert merge_check((1, 3), [0], ((1, 2, 1),)) == (2, 3)
        # a mover's head may hold pebbles as long as the budget allows
        assert merge_check((2, 3), [0], ((2, 3, 1),), congestion=2) == (3, 3)

    def test_detour_is_never_a_candidate(self, monkeypatch, search_only):
        # the heavy edge (2, 4, 5) is on no shortest 1->4 path, so the search
        # never offers it and no move check needs a length test; the routes
        # 1-5-3-4 and 1-7-3-4 keep the demand from being pinned before the
        # search. The routes 6-3-8 and 6-8 do the same for (6, 8), and at
        # c = 1 the two windows contest each other, so both are searched.
        # Both first tight walks take vertex 3, so the first descent does not
        # fit; with the walks in turn left out, the search offers its moves:
        # (6, 3) is cut, (6, 8) fits.
        dag = Dag(8, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (2, 4, 5), (1, 5, 1), (5, 3, 1),
                      (1, 7, 1), (7, 3, 1), (6, 3, 1), (3, 8, 1), (6, 8, 2)))
        offered = []

        def recording(state, movers, terminals, options, *args):
            offered.extend(edge for edges in options for edge in edges)
            return fitting_moves(state, movers, terminals, options, *args)

        monkeypatch.setattr(exact, "fitting_moves", recording)
        solver = DisjointShortestSolver()
        sol = solver.solve(Instance(dag, ((1, 4), (6, 8)), 1))
        assert [p.vertices for p in sol.paths] == [(1, 2, 3, 4), (6, 8)]
        assert sol.paths[0].length == 3
        assert solver.checked == 5 and len(offered) == 7 and (2, 4, 5) not in offered

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
            sol = solve_disjoint_shortest(inst)
            if sol is not None:
                assert verify_solution(inst, sol).feasible


@st.composite
def joint_moves(draw):
    """Pebbles on vertex 1 that move together, the pebbles resting elsewhere, and a budget.

    Movers with the same terminal share one option list, as they share the
    search's tight edges; the heads in a list are distinct, so each pick
    leads to its own state.
    """
    mode = draw(st.sampled_from(("vertex", "edge")))
    congestion = draw(st.integers(1, 3))
    heads = st.integers(2, 6)
    options = {t: [(1, h, 1) for h in draw(st.lists(heads, min_size=1, max_size=4, unique=True))]
               for t in (7, 8)}
    pebbles = [(1, t) for t in draw(st.lists(st.sampled_from((7, 8)), min_size=1, max_size=4))]
    pebbles += draw(st.lists(st.tuples(st.integers(2, 8), st.sampled_from((7, 8))), max_size=3))
    pebbles = draw(st.permutations(pebbles))
    state, terminals = tuple(v for v, _ in pebbles), tuple(t for _, t in pebbles)
    movers = [i for i, v in enumerate(state) if v == 1]
    keys = heads if mode == "vertex" else st.builds(lambda h: (1, h, 1), heads)
    fixed = draw(st.dictionaries(keys, st.integers(0, congestion)))
    lists = [options[terminals[i]] for i in movers]
    return state, movers, terminals, lists, congestion, mode, fixed


class TestFittingMoves:
    """The search's depth-first enumeration of the joint moves that fit."""

    @settings(max_examples=300, deadline=None)
    @given(joint_moves())
    def test_same_picks_as_product_and_merge_check(self, case):
        # the reference: every pick of product(*options) whose option indices
        # do not decrease among the movers of one terminal, checked whole
        state, movers, terminals, options, c, mode, fixed = case
        want = []
        for pick in product(*(range(len(edges)) for edges in options)):
            taken: dict[int, int] = {}
            ordered = True
            for i, k in zip(movers, pick):
                ordered = ordered and taken.get(terminals[i], 0) <= k
                taken[terminals[i]] = k
            picked = [edges[k] for edges, k in zip(options, pick)]
            nxt = merge_check(state, movers, picked, c, mode, fixed)
            if ordered and nxt is not None:
                want.append(nxt)
        checked = list(fitting_moves(*case))
        assert [nxt for nxt in checked if nxt is not None] == want
        # one check per fitting pick or cut prefix, never more than product made
        assert len(checked) <= prod(len(edges) for edges in options)

    @pytest.mark.parametrize("k", [12, 20, 30])
    def test_edge_funnel_decided(self, k):
        # edge mode, c = 1: k pebbles meet at one vertex with two out-edges,
        # so at most two of them can leave it; product made 2^k picks there.
        # An edge from each source to the sink d, which reaches no terminal,
        # jumps over u, so every gap of Dag.order has room for the windows
        # that span it, and the search, not overloaded_cut, decides it
        u, a, b, d = k + 1, k + 2, k + 3, 2 * k + 4
        edges = [(i, u, 1) for i in range(1, k + 1)] + [(u, a, 1), (u, b, 1)]
        edges += [(x, b + i, 1) for i in range(1, k + 1) for x in (a, b)]
        edges += [(i, d, 1) for i in range(1, k + 1)]
        dag, demands = Dag(d, tuple(edges)), tuple((i, b + i) for i in range(1, k + 1))
        inst, solver = Instance(dag, demands, 1, "edge"), DisjointShortestSolver()
        assert solver.solve(inst) is None
        # one move onto u per pebble, then six cut prefixes: the third mover
        # meets both edges full, twice, and the second one once per edge
        assert solver.checked == k + 6 and len(solver.memo.entries) == k + 1
        if 2**k <= 10**6:
            assert brute_force_oracle(inst) is None

    def test_equal_pebbles_take_edges_in_order(self, search_only):
        # 30 pebbles bound for one terminal are interchangeable: on one
        # vertex with two tight edges their picks are the 31 sorted ones,
        # not 2^30
        arms = [(1, 2, 1), (1, 3, 1)]
        moves = list(fitting_moves((1,) * 30, range(30), (4,) * 30, [arms] * 30, 30))
        assert len(moves) == 31 and moves[0] == (2,) * 30 and moves[-1] == (3,) * 30
        # two stacked diamonds in edge mode at c = 15, searched: each fork
        # splits the pebbles in half, with the first pick that fits, which is
        # sorted
        dag = Dag(7, ((1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1),
                      (4, 5, 1), (4, 6, 1), (5, 7, 1), (6, 7, 1)))
        inst, solver = Instance(dag, ((1, 7),) * 30, 15, "edge"), DisjointShortestSolver()
        sol = solver.solve(inst)
        assert [p.vertices for p in sol.paths] == [(1, 2, 4, 5, 7)] * 15 + [(1, 3, 4, 6, 7)] * 15
        assert verify_solution(inst, sol).feasible
        # per fork one cut prefix (a 16th pebble on the first edge) and one
        # pick; one pick for each vertex after a fork
        assert solver.checked == 8


class TestSolveDisjointShortest:
    def test_chain_unique_path(self):
        sol = solve_disjoint_shortest(Instance(chain(3), ((1, 3),), 1))
        assert sol.paths[0].vertices == (1, 2, 3)

    def test_diamond_unreachable_pair(self):
        assert solve_disjoint_shortest(Instance(diamond(), ((1, 4), (2, 3)), 1)) is None

    def test_grid_two_demands_matches_oracle(self):
        dag, vid = grid_dag(3, 3)
        pairs = ((vid[(0, 0)], vid[(2, 2)]), (vid[(0, 1)], vid[(2, 1)]))
        inst = Instance(dag, pairs, 1)
        sol = solve_disjoint_shortest(inst)
        want = brute_force_oracle(inst)
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
        sol = solve_disjoint_shortest(Instance(dag, demands, 2))
        assert sol is not None
        assert verify_solution(Instance(dag, demands, 2), sol).feasible
        assert solve_disjoint_shortest(Instance(dag, demands, 1)) is None

    def test_demand_count_is_not_capped(self, caplog):
        # seven demands on one edge are decided, not refused: the endpoint
        # check rejects them at c = 1 and they all fit at c = 7
        dag, demands = chain(8), ((1, 2),) * 7
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            assert solve_disjoint_shortest(Instance(dag, demands, 1)) is None
        assert caplog.messages == ["infeasible: endpoint overload at vertex 1"]
        assert brute_force_oracle(Instance(dag, demands, 1)) is None
        sol = solve_disjoint_shortest(Instance(dag, demands, 7))
        assert sol == brute_force_oracle(Instance(dag, demands, 7))

    def test_edge_mode_endpoint_overload(self, caplog):
        # in edge mode a vertex carries c paths per out-edge from it and per
        # in-edge into it; the diamond's source and sink have two of each
        dag = diamond()
        for demands, vertex in ((((1, 4),) * 3, 1), (((2, 4), (3, 4), (1, 4)), 4)):
            caplog.clear()
            with caplog.at_level("DEBUG", logger="dspc.exact"):
                assert solve_disjoint_shortest(Instance(dag, demands, 1, "edge")) is None
            assert caplog.messages == [f"infeasible: endpoint overload at vertex {vertex}"]
            assert brute_force_oracle(Instance(dag, demands, 1, "edge")) is None
        sol = solve_disjoint_shortest(Instance(dag, ((1, 4),) * 2, 1, "edge"))
        assert sol == brute_force_oracle(Instance(dag, ((1, 4),) * 2, 1, "edge"))
        # thirty pebbles on the forking source are refused up front; the search
        # would try 2^30 moves from there, none of which fits
        assert solve_disjoint_shortest(Instance(dag, ((1, 4),) * 30, 1, "edge")) is None

    def test_deterministic(self):
        for seed in range(15):
            rng = random.Random(seed)
            inst = random_instance(rng, n=8, k=3, congestion=1)
            first = solve_disjoint_shortest(inst)
            second = solve_disjoint_shortest(inst)
            assert first == second

    def test_agrees_with_oracle_and_verifies(self):
        for seed in range(150):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 8), k=rng.randint(1, 3),
                                   congestion=1)
            got = solve_disjoint_shortest(inst)
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
            sol = solve_disjoint_shortest(inst)
            if sol is None:
                continue
            for path in sol.paths:
                for cut in range(1, len(path.vertices) + 1):
                    assert is_shortest(inst.dag, Path.trace(inst.dag, path.vertices[:cut]))


class TestPinPass:
    """Forced demands are routed before the search and fill part of the budget."""

    def test_unique_path_is_routed_without_search(self):
        # the chains 1-3-5-7 and 2-4-6-8 interleave, so at c = 1 their
        # windows meet and each demand's one path is pinned
        dag = Dag(8, ((1, 3, 1), (3, 5, 1), (5, 7, 1), (2, 4, 1), (4, 6, 1), (6, 8, 1)))
        solver = DisjointShortestSolver()
        sol = solver.solve(Instance(dag, ((1, 7), (2, 8)), 1))
        assert [p.vertices for p in sol.paths] == [(1, 3, 5, 7), (2, 4, 6, 8)]
        assert solver.pinned == (0, 1) and not solver.memo.entries

    def test_saturated_edge_pins_a_second_demand(self):
        # (1, 3) has one path and fills edge (2, 3); (2, 5) then has only 2-4-5
        dag = Dag(5, ((1, 2, 1), (2, 3, 1), (2, 4, 1), (3, 5, 1), (4, 5, 1)))
        solver = DisjointShortestSolver()
        sol = solver.solve(Instance(dag, ((2, 5), (1, 3)), 1, "edge"))
        assert [p.vertices for p in sol.paths] == [(2, 4, 5), (1, 2, 3)]
        assert solver.pinned == (0, 1) and not solver.memo.entries
        # at c = 2, with a second (2, 5) over the window of (1, 3), both
        # (2, 5) keep both routes and are searched
        sol = solver.solve(Instance(dag, ((2, 5), (1, 3), (2, 5)), 2, "edge"))
        assert [p.vertices for p in sol.paths] == [(2, 3, 5), (1, 2, 3), (2, 4, 5)]
        assert solver.pinned == (1,)

    def test_no_residual_path_is_infeasible(self, caplog):
        # the pinned path 1-2-3 fills both middle vertices of (4, 5)
        dag = Dag(5, ((1, 2, 1), (2, 3, 1), (4, 2, 1), (4, 3, 1), (2, 5, 1), (3, 5, 1)))
        solver = DisjointShortestSolver()
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            assert solver.solve(Instance(dag, ((1, 3), (4, 5)), 1)) is None
        assert caplog.messages == ["infeasible: demand 1 has no shortest path left"]
        assert solver.pinned == (0,) and not solver.memo.entries
        assert solver.solve(Instance(dag, ((4, 5),), 1)) is not None and solver.pinned == ()

    def test_pinned_path_through_a_free_source(self, caplog):
        # 1-2-3 is forced and runs through vertex 2, where free demands start
        dag = Dag(6, ((1, 2, 1), (2, 3, 1), (2, 4, 1), (2, 5, 1), (4, 6, 1), (5, 6, 1)))
        assert solve_disjoint_shortest(Instance(dag, ((1, 3), (2, 6)), 1)) is None
        assert brute_force_oracle(Instance(dag, ((1, 3), (2, 6)), 1)) is None
        # at c = 2 the source holds the pinned path and two free pebbles
        demands = ((1, 3), (2, 6), (2, 6))
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            assert solve_disjoint_shortest(Instance(dag, demands, 2)) is None
        assert caplog.messages == ["infeasible: pinned paths overload vertex 2"]
        assert brute_force_oracle(Instance(dag, demands, 2)) is None
        assert solve_disjoint_shortest(Instance(dag, demands, 3)) is not None

    def test_zero_length_and_duplicate_demands(self, caplog):
        # (2, 2) holds vertex 2, which leaves (1, 4) the arm through 3
        solver = DisjointShortestSolver()
        sol = solver.solve(Instance(diamond(), ((2, 2), (1, 4)), 1))
        assert [p.vertices for p in sol.paths] == [(2,), (1, 3, 4)]
        assert solver.pinned == (0, 1) and not solver.memo.entries
        # in edge mode (2, 2) takes no edge
        sol = solver.solve(Instance(diamond(), ((2, 2), (1, 4)), 1, "edge"))
        assert [p.vertices for p in sol.paths] == [(2,), (1, 2, 4)]
        assert solver.pinned == (0,)
        # equal unique demands are both pinned and share the load, once a
        # third demand (3, 6) meets their windows at vertex 3
        fork = Dag(6, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1), (4, 6, 1), (5, 6, 1)))
        sol = solver.solve(Instance(fork, ((1, 3), (1, 3), (3, 6)), 2, "edge"))
        assert len(sol.paths) == 3 and solver.pinned == (0, 1)
        # two forced paths that start and end apart still share edge (3, 4):
        # once the first is pinned, the second has no path left
        apart = Dag(6, ((1, 3, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (4, 6, 1)))
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            assert solve_disjoint_shortest(Instance(chain(3), ((1, 3), (1, 3)), 1, "edge")) is None
            assert solve_disjoint_shortest(Instance(chain(3), ((1, 3), (1, 3)), 1)) is None
            assert solve_disjoint_shortest(Instance(apart, ((1, 5), (2, 6)), 1, "edge")) is None
        assert caplog.messages == [
            "infeasible: endpoint overload at vertex 1",
            "infeasible: endpoint overload at vertex 1",
            "infeasible: demand 1 has no shortest path left",
        ]

    def test_search_exhausted_is_logged(self, caplog):
        # 3x3 grid: (1, 6) must avoid 2 and so ends on 4-5-6, which leaves
        # (2, 9) no way down
        solver = DisjointShortestSolver()
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            assert solver.solve(Instance(grid(3, 3), ((1, 6), (2, 9)), 1)) is None
        dead = len(solver.memo.entries)
        assert solver.pinned == () and dead > 0
        assert caplog.messages == [
            "demands: 0 pinned, 0 direct, 2 searched",
            f"search: {dead} dead states, {solver.checked} moves checked",
            f"infeasible: search exhausted after {dead} dead states",
        ]

    def test_agrees_with_oracle_on_every_route(self, monkeypatch):
        # an instance is decided by the pin pass alone, pinned in part and
        # then searched, searched with nothing pinned, by the search's first
        # descent in closed form or by the walks in turn, and some route
        # demands directly; every route is taken at least 10 times per mode.
        # The 1,000 draws per mode are contested_instance ones, whose
        # search-heavy demands contest each other and whose added demands of
        # one path are pinned once their windows meet more than c others.
        # The rarest route, pinned and then searched, is taken 42 (vertex) and
        # 52 (edge) times. The feasible draws pin 1,079 demands, and each
        # pinned route, like each of the 307 direct routes that are the only
        # shortest path, is checked against the oracle's.
        searched, descended, walked, forced = [], [], [], 0
        search, descend = DisjointShortestSolver._search, DisjointShortestSolver._descend
        route_in_turn = DisjointShortestSolver._route_in_turn

        def recording(self, inst, start, *args):
            searched.append(bool(start))
            return search(self, inst, start, *args)

        def recording_descent(self, *args):
            walks = descend(self, *args)
            descended.append(walks is not None)
            return walks

        def recording_walks(self, *args):
            walks = route_in_turn(*args)
            walked.append(walks is not None)
            return walks

        monkeypatch.setattr(DisjointShortestSolver, "_search", recording)
        monkeypatch.setattr(DisjointShortestSolver, "_descend", recording_descent)
        monkeypatch.setattr(DisjointShortestSolver, "_route_in_turn", recording_walks)
        for mode in ("vertex", "edge"):
            routes = Counter()
            for seed in range(1000):
                inst = contested_instance(random.Random(seed), mode)
                searched.clear()
                descended.clear()
                walked.clear()
                solver = DisjointShortestSolver()
                got = solver.solve(inst)
                want = brute_force_oracle(inst)
                assert (got is None) == (want is None), (mode, seed)
                if got is not None:
                    assert verify_solution(inst, got).feasible, (mode, seed)
                    # a pinned route is the same in every feasible routing,
                    # so the oracle's first routing takes it too
                    for i in solver.pinned:
                        assert got.paths[i] == want.paths[i], (mode, seed, i)
                    forced += len(solver.pinned)
                    for i in solver.direct:
                        if count_shortest_paths(inst.dag, *inst.demands[i]) == 1:
                            assert got.paths[i] == want.paths[i], (mode, seed, i)
                if any(descended):
                    assert not walked and not searched, (mode, seed)
                    routes["descent"] += 1
                elif any(walked):
                    assert not searched, (mode, seed)
                    routes["walks"] += 1
                else:
                    routes[bool(solver.pinned), any(searched)] += 1
                routes["direct"] += bool(solver.direct)
            assert min(routes[True, False], routes[True, True], routes[False, True],
                       routes["direct"], routes["descent"], routes["walks"]) >= 10, (mode, routes)
        assert forced >= 300, forced

    def test_counted_rounds_run_only_once_an_element_is_full(self, monkeypatch):
        rounds = []
        count_rounds = DisjointShortestSolver._count_rounds

        def recording(*args):
            rounds.append(args[0].demands)
            return count_rounds(*args)

        monkeypatch.setattr(DisjointShortestSolver, "_count_rounds", staticmethod(recording))
        # both demands fork on the 3x3 grid, and nothing is pinned
        assert solve_disjoint_shortest(Instance(grid(3, 3), ((1, 6), (2, 9)), 1)) is None
        # (1, 3) is forced but fills edge (2, 3) only to 1 of 2, and (2, 5) forks
        dag = Dag(5, ((1, 2, 1), (2, 3, 1), (2, 4, 1), (3, 5, 1), (4, 5, 1)))
        solver = DisjointShortestSolver()
        assert solver.solve(Instance(dag, ((2, 5), (1, 3), (2, 5)), 2, "edge")) is not None
        assert solver.pinned == (1,) and rounds == []
        # at c = 1 the forced (1, 3) fills edge (2, 3), and only a count pins (2, 5)
        assert solver.solve(Instance(dag, ((2, 5), (1, 3)), 1, "edge")) is not None
        assert solver.pinned == (0, 1) and rounds == [((2, 5), (1, 3))]

    @pytest.mark.parametrize("family", ["random", "contested", "search-heavy", "bottleneck",
                                        "grid-family"])
    def test_pins_match_a_fixpoint_over_enumerated_paths(self, family, monkeypatch):
        # Per draw, the demands that are not direct are pinned by enumerating
        # their shortest paths with iter_shortest_paths: a demand left one path
        # over the elements below c takes it, until none is; one left none
        # refutes. The solver must pin exactly that set, by those paths, and
        # its pin pass must refute exactly when this one does; which demands
        # a refuted pass pinned first depends on its order, so that is not
        # compared. Each family takes 1,000 draws in each mode it has, and
        # every verdict within the oracle's reach is checked against it.
        pin = DisjointShortestSolver._pin
        returned = []

        def recording(self, *args):
            returned.append(pin(self, *args))
            return returned[-1]

        def grid_family(rng, _mode):
            cg = random_colored_graph(rng, rng.randint(3, 6), 3)
            if rng.random() < 0.5:
                cg, _ = plant_colorful_clique(rng, cg)
            return mcc_to_planar_edsp(cg, 3)[0]

        def random_draw(rng, mode):
            k = rng.randint(1, 5)
            return random_instance(rng, n=rng.randint(1, 9), k=k, congestion=rng.randint(1, k),
                                   mode=mode, edge_prob=rng.choice((0.3, 0.5, 0.7)))

        def search_heavy(rng, mode):
            k = rng.randint(2, 6)
            return search_heavy_instance(rng, k, rng.randint(1, k - 1), mode)

        draw, modes = {
            "random": (random_draw, ("vertex", "edge")),
            "contested": (contested_instance, ("vertex", "edge")),
            "search-heavy": (search_heavy, ("vertex", "edge")),
            "bottleneck": (lambda rng, _mode: bottleneck_instance(rng, rng.randint(4, 6),
                                                                  rng.randint(1, 3)), ("edge",)),
            "grid-family": (grid_family, ("edge",)),
        }[family]
        monkeypatch.setattr(DisjointShortestSolver, "_pin", recording)
        pins = refuted = 0
        for mode in modes:
            for seed in range(1000):
                inst = draw(random.Random(seed), mode)
                returned.clear()
                solver = DisjointShortestSolver()
                got = solver.solve(inst)
                try:
                    want = brute_force_oracle(inst, limit=10**4)
                    assert (got is None) == (want is None), (mode, seed)
                except OracleTooLarge:
                    pass
                if not returned:
                    continue  # refuted before the pin pass
                free = [i for i in range(len(inst.demands)) if i not in solver.direct]
                forced = fixpoint_pins(inst, free)
                if forced is None:
                    assert returned == [None] and got is None, (mode, seed)
                    refuted += 1
                    continue
                assert solver.pinned == tuple(sorted(forced)), (mode, seed)
                if got is not None:
                    assert all(got.paths[i].vertices == forced[i] for i in forced), (mode, seed)
                pins += len(forced)
        # every search-heavy and bottleneck demand has two shortest paths or
        # more, so nothing is pinned there; the others pin 564, 1,159 and
        # 3,034 demands and refute 21, 168 and 357 draws in the pin pass
        least = {"random": (280, 10), "contested": (580, 80), "grid-family": (1500, 180)}
        if family in least:
            least_pins, least_refuted = least[family]
            assert pins >= least_pins and refuted >= least_refuted, (pins, refuted)
        else:
            assert pins == refuted == 0, (pins, refuted)


def fixpoint_pins(inst: Instance, free: list[int]) -> dict[int, tuple[int, ...]] | None:
    """The free demands left one shortest path over elements below c, pinned until none is.

    Each pinned path loads its vertices (vertex mode) or its (u, v) pairs
    (edge mode) by one. None when a free demand has no path left.
    """
    c, vertex_mode = inst.congestion, inst.mode == "vertex"
    routes = {}
    for i in free:
        paths = [p.vertices for p in iter_shortest_paths(inst.dag, *inst.demands[i])]
        routes[i] = [(p, p if vertex_mode else tuple(zip(p, p[1:]))) for p in paths]
    load, pins, changed = Counter(), {}, True
    while changed:
        changed = False
        for i in free:
            if i in pins:
                continue
            left = [(p, elements) for p, elements in routes[i]
                    if all(load[x] < c for x in elements)]
            if not left:
                return None
            if len(left) == 1:
                pins[i], elements = left[0]
                load.update(elements)
                changed = True
    return pins


def first_tight_walk(dag: Dag, s: int, t: int) -> tuple[int, ...]:
    """From s, the first out-edge (u, v, w) with w + b[v] = b[u], b = dist(., t), until t."""
    b, walk = dag.dist_to(t), [s]
    while walk[-1] != t:
        u = walk[-1]
        walk.append(next(v for _, v, w in dag.out_edges[u] if w + b[v] == b[u]))
    return tuple(walk)


class TestDirectRoute:
    """A free demand that no position can overload takes its first tight walk, unsearched."""

    def test_direct_paths_are_first_tight_walks(self):
        # 3,000 draws per mode, every other one at c = k; the routing verifies
        # and the verdict is the oracle's. Feasible draws route 139 (vertex)
        # and 147 (edge) demands directly, each with two or more shortest paths.
        direct = Counter()
        for mode in ("vertex", "edge"):
            for seed in range(3000):
                rng = random.Random(seed)
                k = rng.randint(1, 5)
                c = k if seed % 2 else rng.randint(1, k)
                inst = random_instance(
                    rng, n=rng.randint(1, 9), k=k, congestion=c, mode=mode,
                    edge_prob=rng.choice((0.3, 0.5, 0.7)), max_weight=rng.randint(1, 3),
                )
                solver = DisjointShortestSolver()
                got = solver.solve(inst)
                assert (got is None) == (brute_force_oracle(inst) is None), (mode, seed)
                if got is None:
                    continue
                assert verify_solution(inst, got).feasible, (mode, seed)
                assert not set(solver.direct) & set(solver.pinned)
                for i in solver.direct:
                    s, t = inst.demands[i]
                    assert got.paths[i].vertices == first_tight_walk(inst.dag, s, t), (mode, seed)
                direct[mode] += len(solver.direct)
        assert min(direct.values()) >= 70, direct

    def test_forced_uncontested_demand_is_direct(self, caplog):
        # one path and no other window: the bound reads the windows alone,
        # so the demand is routed directly, before the pin pass
        solver = DisjointShortestSolver()
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            sol = solver.solve(Instance(chain(4), ((1, 4),), 1))
        assert [p.vertices for p in sol.paths] == [(1, 2, 3, 4)]
        assert solver.direct == (0,) and solver.pinned == () and solver.checked == 0
        assert caplog.messages == ["demands: 0 pinned, 1 direct, 0 searched"]

    def test_no_more_demands_than_c_needs_no_search(self):
        # the 3x3 grid of test_search_exhausted_is_logged: infeasible at c = 1,
        # and at c = 2 both demands take their first tight walk
        inst, solver = Instance(grid(3, 3), ((1, 6), (2, 9)), 2), DisjointShortestSolver()
        sol = solver.solve(inst)
        assert [p.vertices for p in sol.paths] == [(1, 2, 3, 6), (2, 3, 6, 9)]
        assert solver.direct == (0, 1) and solver.pinned == ()
        assert solver.checked == 0 and not solver.memo.entries
        assert verify_solution(inst, sol).feasible

    def test_pinned_load_contests(self, search_only):
        # at c = 2 the (1, 4) demands would fit alone, but the window of a
        # forced demand through vertex 2 (vertex mode) or edge (2, 4) (edge
        # mode), which both first tight walks 1-2-4 take, meets theirs: all
        # three are contested, the forced one is pinned and the other two are
        # searched (with the walks in turn left out), and one takes the arm
        # through 3
        through_2 = Dag(6, ((1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1), (5, 2, 1), (2, 6, 1)))
        for inst in (Instance(through_2, ((1, 4), (1, 4), (5, 6)), 2),
                     Instance(diamond(), ((1, 4), (1, 4), (2, 4)), 2, "edge")):
            solver = DisjointShortestSolver()
            sol = solver.solve(inst)
            assert solver.pinned == (2,) and solver.direct == () and solver.checked > 0
            assert [p.vertices[:3] for p in sol.paths[:2]] == [(1, 2, 4), (1, 3, 4)]
            assert verify_solution(inst, sol).feasible
            assert sol == brute_force_oracle(inst)
        # in edge mode the window of the forced (2, 5) ends past those of
        # (1, 4) and still meets them
        past = Dag(5, diamond().edges + ((2, 5, 1), (4, 5, 1)))
        solver = DisjointShortestSolver()
        sol = solver.solve(Instance(past, ((1, 4), (1, 4), (2, 5)), 2, "edge"))
        assert solver.pinned == (2,) and solver.direct == () and solver.checked > 0
        assert [p.vertices for p in sol.paths] == [(1, 2, 4), (1, 2, 4), (2, 5)]


def untangled() -> Instance:
    """Two demands that contest each other at c = 1 and whose first tight walks fit.

    (1, 4) has the routes 1-2-3-4 and 1-5-3-4, and (6, 9) the routes 6-7-9
    and 6-8-9; the edge (9, 4) puts the second window inside the first.
    """
    dag = Dag(9, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (2, 4, 5), (1, 5, 1), (5, 3, 1),
                  (6, 7, 1), (6, 8, 1), (7, 9, 1), (8, 9, 1), (9, 4, 1)))
    return Instance(dag, ((1, 4), (6, 9)), 1)


class TestFirstDescent:
    """When every free pebble's first tight walk fits, ``solve`` returns them without the search."""

    def test_same_as_the_search(self, monkeypatch, caplog, search_only):
        # with the walks in turn left out, each draw is solved as shipped and
        # with the descent deferring to the search: the routing, the moves checked, the dead states, the
        # pinned and direct demands and the debug lines are the same. Of the
        # 4,000 draws, 1,500 random and 500 search-heavy per mode, the
        # descent decides 540 and defers 384 to the search.
        decided = Counter()
        for mode in ("vertex", "edge"):
            for seed in range(2000):
                rng = random.Random(seed)
                if seed < 1500:
                    k = rng.randint(1, 8)
                    inst = random_instance(
                        rng, n=rng.randint(1, 9), k=k, congestion=rng.randint(1, k), mode=mode,
                        edge_prob=rng.choice((0.3, 0.5, 0.7)), max_weight=rng.randint(1, 3),
                    )
                else:
                    k = rng.randint(2, 7)
                    inst = search_heavy_instance(rng, k, rng.randint(1, k - 1), mode)
                shipped, deferring = DisjointShortestSolver(), DisjointShortestSolver()
                descend = shipped._descend

                def recording(*args):
                    walks = descend(*args)
                    decided[walks is not None] += 1
                    return walks

                monkeypatch.setattr(shipped, "_descend", recording)
                monkeypatch.setattr(deferring, "_descend", lambda *args: None)
                runs = []
                for solver in (shipped, deferring):
                    caplog.clear()
                    with caplog.at_level("DEBUG", logger="dspc.exact"):
                        routed = solver.solve(inst)
                    runs.append((routed, solver.checked, solver.memo.entries, solver.pinned,
                                 solver.direct, caplog.messages))
                assert runs[0] == runs[1], (mode, seed)
        assert decided[True] >= 300 and decided[False] >= 300, decided

    def test_fitting_walks_skip_the_cut_and_the_sweep_order(self, monkeypatch, caplog):
        # the search would make 5 moves, on 1, 2 and 3 and on 6 and 7, with no
        # cut prefix; the descent counts them without the search's machinery
        for name in ("overloaded_cut", "sweep_order", "fitting_moves"):
            monkeypatch.setattr(exact, name, None)
        solver = DisjointShortestSolver()
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            sol = solver.solve(untangled())
        assert [p.vertices for p in sol.paths] == [(1, 2, 3, 4), (6, 7, 9)]
        assert solver.pinned == () and solver.direct == ()
        assert solver.checked == 5 and not solver.memo.entries
        assert caplog.messages == ["demands: 0 pinned, 0 direct, 2 searched",
                                   "search: 0 dead states, 5 moves checked"]

    def test_budget_of_moves_checked(self, monkeypatch, search_only):
        # the move budget still stops a solve that the descent would decide,
        # with the search's error after as many moves, when the walks in turn
        # are left out
        inst, solver = untangled(), DisjointShortestSolver()
        routed = solver.solve(inst)
        assert solver.checked == 5
        monkeypatch.setattr(exact, "MAX_MOVES_CHECKED", 5)
        assert solver.solve(inst) == routed and solver.checked == 5
        monkeypatch.setattr(exact, "MAX_MOVES_CHECKED", 4)
        with pytest.raises(LimitExceeded, match="search gave up after 4 moves checked"):
            solver.solve(inst)
        assert solver.checked == 4 and not solver.memo.entries


def order_bound(first: int) -> Instance:
    """Two contested demands at c = 1 in vertex mode, demand ``first`` of them listed first.

    Demand 0, (1, 7), has the routes 1-3-5-7 and 1-4-7, and demand 1,
    (2, 6), the routes 2-3-6 and 2-5-6. The first tight walks both take
    vertex 3, and the walk 1-3-5-7 fills both routes of (2, 6).
    """
    dag = Dag(7, ((1, 3, 1), (1, 4, 1), (3, 5, 1), (5, 7, 1), (4, 7, 2),
                  (2, 3, 1), (2, 5, 1), (3, 6, 1), (5, 6, 1)))
    demands = ((1, 7), (2, 6))
    return Instance(dag, (demands[first], demands[1 - first]), 1)


class TestWalksInTurn:
    """Free demands the first descent cannot route take open tight walks in turn before the search."""

    def test_same_verdict_as_the_search(self, monkeypatch):
        # 3,100 draws: 800 random and 500 search-heavy per mode, and 500
        # bottleneck draws. Each is solved as shipped and with the walks in
        # turn left out: the verdicts are the same and match the oracle's
        # where it fits, and every routing verifies. The walks route 277
        # draws (105 vertex, 71 edge, 101 bottleneck), each with no move
        # checked and no dead state, and with one free demand they give the
        # search's routing; they give up on 309 (151, 37, 121).
        routed, deferred = Counter(), Counter()
        for mode in ("vertex", "edge"):
            for seed in range(1300):
                rng = random.Random(seed)
                if seed < 800:
                    k = rng.randint(1, 8)
                    inst = random_instance(
                        rng, n=rng.randint(1, 9), k=k, congestion=rng.randint(1, k), mode=mode,
                        edge_prob=rng.choice((0.3, 0.5, 0.7)), max_weight=rng.randint(1, 3),
                    )
                else:
                    k = rng.randint(2, 7)
                    inst = search_heavy_instance(rng, k, rng.randint(1, k - 1), mode)
                self._check(monkeypatch, inst, routed, deferred, (mode, seed))
        for seed in range(500):
            rng = random.Random(seed)
            inst = bottleneck_instance(rng, rng.randint(4, 6), rng.randint(1, 2))
            self._check(monkeypatch, inst, routed, deferred, ("bottleneck", seed))
        assert min(routed.values()) >= 35 and len(routed) == 3, routed
        assert min(deferred.values()) >= 15 and len(deferred) == 3, deferred

    @staticmethod
    def _check(monkeypatch, inst, routed, deferred, where):
        shipped, searching = DisjointShortestSolver(), DisjointShortestSolver()
        walks_in_turn, outcome = shipped._route_in_turn, []

        def recording(*args):
            walks = walks_in_turn(*args)
            outcome.append(walks is not None)
            return walks

        monkeypatch.setattr(shipped, "_route_in_turn", recording)
        monkeypatch.setattr(searching, "_route_in_turn", lambda *args: None)
        got, want = shipped.solve(inst), searching.solve(inst)
        assert (got is None) == (want is None), where
        try:
            assert (brute_force_oracle(inst) is None) == (got is None), where
        except OracleTooLarge:
            pass
        for sol in (got, want):
            assert sol is None or verify_solution(inst, sol).feasible, where
        kind = where[0]
        if outcome == [True]:
            assert shipped.checked == 0 and not shipped.memo.entries, where
            if inst.k - len(shipped.pinned) - len(shipped.direct) == 1:
                assert got == want, where
            routed[kind] += 1
        elif outcome:
            deferred[kind] += 1

    def test_demand_order_decides_whether_the_walks_route(self, caplog):
        # listed first, (1, 7) takes 1-3-5-7, which fills both routes of
        # (2, 6), so the walks give up and the search routes both
        inst, solver = order_bound(0), DisjointShortestSolver()
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            sol = solver.solve(inst)
        assert [p.vertices for p in sol.paths] == [(1, 4, 7), (2, 3, 6)]
        assert verify_solution(inst, sol).feasible and solver.checked > 0
        assert caplog.messages == [
            "demands: 0 pinned, 0 direct, 2 searched",
            f"search: {len(solver.memo.entries)} dead states, {solver.checked} moves checked",
        ]
        # listed first, (2, 6) takes 2-3-6, and (1, 7) then goes round 3 by 4
        caplog.clear()
        inst = order_bound(1)
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            sol = solver.solve(inst)
        assert [p.vertices for p in sol.paths] == [(2, 3, 6), (1, 4, 7)]
        assert verify_solution(inst, sol).feasible
        assert solver.checked == 0 and not solver.memo.entries
        assert caplog.messages == ["demands: 0 pinned, 0 direct, 2 searched",
                                   "walks in turn: 2 demands routed"]

    def test_each_vertex_is_entered_once(self):
        # 12 stacked diamonds ahead of z, which a pinned load fills: every
        # one of the 4,096 tight walks dead-ends at z, and the walk enters
        # each of the 37 vertices before z once, backing out of dead ones
        m = 12
        edges = [e for i in range(m) for e in ((3 * i + 1, 3 * i + 2, 1), (3 * i + 1, 3 * i + 3, 1),
                                               (3 * i + 2, 3 * i + 4, 1), (3 * i + 3, 3 * i + 4, 1))]
        z, t = 3 * m + 2, 3 * m + 3
        dag = Dag(t, tuple(edges) + ((3 * m + 1, z, 1), (z, t, 1)))
        entered = Counter()

        class Counting(tuple):
            def __getitem__(self, v):
                entered[v] += 1
                return tuple.__getitem__(self, v)

        inst = Instance(dag, ((1, t),), 1)
        counted = SimpleNamespace(demands=inst.demands, congestion=1, mode="vertex",
                                  dag=SimpleNamespace(out_edges=Counting(dag.out_edges)))
        to_t = {t: dag.dist_to(t)}
        assert DisjointShortestSolver._route_in_turn(counted, [0], to_t, {z: 1}) is None
        assert set(entered) == set(range(1, 3 * m + 2)) and max(entered.values()) == 1
        # with z open, the walk is the first tight walk
        assert DisjointShortestSolver._route_in_turn(inst, [0], to_t, {}) == {
            0: first_tight_walk(dag, 1, t)}


class TestCoverageFloor:
    """Seeded batches keep the search and the pin pass at work, so a fault in them shows."""

    def test_search_heavy_draws_backtrack(self):
        # no search_heavy_instance demand is pinned; edge mode draws c = 1 and
        # at least 4 demands, as in test_congestion's search-heavy draws. The
        # 400 draws check 5,899 moves and record 1,198 dead states; demands
        # that meet at most c others are routed without a search.
        checked = dead = 0
        for mode, smallest_k, largest_c in (("vertex", 2, 3), ("edge", 4, 1)):
            for seed in range(200):
                rng = random.Random(seed)
                k = rng.randint(smallest_k, 6)
                inst = search_heavy_instance(rng, k, rng.randint(1, min(k, largest_c)), mode)
                solver = DisjointShortestSolver()
                solver.solve(inst)
                assert solver.pinned == ()
                checked += solver.checked
                dead += len(solver.memo.entries)
        assert checked >= 3000 and dead >= 600, (checked, dead)

    def test_grid_family_pins(self):
        # 40 planted grid-family gadgets at 3 colours, all feasible: 136 of
        # their 240 demands are pinned
        pinned = 0
        for seed in range(40):
            rng = random.Random(seed)
            cg, _ = plant_colorful_clique(rng, random_colored_graph(rng, 6, 3))
            inst, _ = mcc_to_planar_edsp(cg, 3)
            solver = DisjointShortestSolver()
            assert solver.solve(inst) is not None
            pinned += len(solver.pinned)
        assert pinned >= 68, pinned


def funnel(k: int, sources_first: bool, jump: bool = False) -> Instance:
    """The forced funnel: s_i -> {a_i, b_i} -> z -> t_i for k demands in vertex mode, c = k - 1.

    Every shortest path crosses z, so it is infeasible. The sources come
    first, or each demand's s_i, a_i, b_i come together; z and the t_i last.
    With ``jump`` an edge from s_1 to a last vertex, which reaches no
    terminal and so is no demand's shortest-path edge, jumps over z in
    ``Dag.order``; then ``overloaded_cut`` cannot refute it, and only the
    search can.
    """
    if sources_first:
        s, a, b = range(1, k + 1), range(k + 1, 3 * k, 2), range(k + 2, 3 * k + 1, 2)
    else:
        s, a, b = range(1, 3 * k, 3), range(2, 3 * k, 3), range(3, 3 * k + 1, 3)
    z, t = 3 * k + 1, range(3 * k + 2, 4 * k + 2)
    edges = [e for i in range(k) for e in ((s[i], a[i], 1), (s[i], b[i], 1), (a[i], z, 1),
                                           (b[i], z, 1), (z, t[i], 1))]
    if jump:
        edges.append((s[0], 4 * k + 2, 1))
    return Instance(Dag(4 * k + 1 + jump, tuple(edges)), tuple(zip(s, t)), k - 1)


class TestSweepOrder:
    """The search sweeps the graph in its own LIFO Kahn order, whatever ``Dag.order`` is."""

    @pytest.mark.parametrize("draw, count", (
        pytest.param(partial(large_random_draw, "vertex"), 100, id="random-vertex"),
        pytest.param(partial(large_random_draw, "edge"), 100, id="random-edge"),
        pytest.param(partial(search_heavy_draw, "vertex", 2, 3), 60, id="search-heavy-vertex"),
        pytest.param(partial(search_heavy_draw, "edge", 4, 1), 60, id="search-heavy-edge"),
        pytest.param(lambda rng: relabelled_search_heavy_instance(rng, rng.randint(2, 6), 1), 60,
                     id="vertex-relabelled"),
        pytest.param(lambda rng: bottleneck_instance(rng, rng.randint(4, 6), 2), 60,
                     id="bottleneck"),
        pytest.param(grid_family_draw, 40, id="grid-family"),
        pytest.param(block_family_draw, 12, id="block-family"),
    ))
    def test_order_is_topological_and_lifo_kahn(self, draw, count):
        for rng_seed in range(count):
            inst = draw(random.Random(rng_seed))
            dag = inst.dag
            order, pos = sweep_order(dag)
            assert sorted(order) == list(range(1, dag.vertex_count + 1)), rng_seed
            assert [pos[v] for v in order] == list(range(dag.vertex_count)), rng_seed
            assert all(pos[u] < pos[v] for u, v, _ in dag.edges), rng_seed
            renamed, lifo = lifo_relabelling(inst)
            assert order == lifo, rng_seed
            # renamed by its own sweep, the graph is swept in id order
            assert sweep_order(renamed.dag)[0] == list(range(1, dag.vertex_count + 1)), rng_seed

    def test_forced_funnel_takes_three_dead_states_per_demand(self, monkeypatch):
        # whichever way the funnel is numbered, the sweep takes each demand's
        # s_i, a_i, b_i together, so the memo sees one pebble in flight at once;
        # the edge that jumps over z leaves the funnel to the search
        for sources_first in (True, False):
            solver = DisjointShortestSolver()
            assert solver.solve(funnel(40, sources_first, jump=True)) is None
            assert len(solver.memo.entries) == 3 * 40, sources_first
        # swept in Dag.order, sources first takes 3 * 2^k - 3 dead states
        monkeypatch.setattr(exact, "sweep_order", lambda dag: (dag.order, dag.position))
        for sources_first, dead in ((True, 3 * 2**6 - 3), (False, 3 * 6)):
            solver = DisjointShortestSolver()
            assert solver.solve(funnel(6, sources_first, jump=True)) is None
            assert len(solver.memo.entries) == dead, sources_first

    def test_unplanted_four_colour_grids_are_decided(self):
        # size 16, k = 8: the LIFO sweep decides both draws within these bounds,
        # while a sweep in Dag.order would stop both at MAX_DEAD_STATES
        for seed, bound in ((1, 1455), (2, 2109)):
            rng = random.Random(seed)
            cg = random_colored_graph(rng, 16, 4, 0.5)
            inst, _ = mcc_to_planar_edsp(cg, 4)
            solver = DisjointShortestSolver()
            routed = solver.solve(inst)
            assert (routed is None) == (find_colorful_clique(cg, 4) is None), seed
            assert routed is None or verify_solution(inst, routed).feasible
            assert len(solver.memo.entries) <= bound, seed


class TestOverloadedCut:
    """Demands forced through a cut of ``Dag.order`` beyond its budget refute before the search."""

    def test_forced_funnel_is_refuted_before_the_search(self, caplog):
        # no edge jumps over z, and all k = 40 windows hold it at c = 39
        for sources_first in (True, False):
            solver = DisjointShortestSolver()
            with caplog.at_level("DEBUG", logger="dspc.exact"):
                assert solver.solve(funnel(40, sources_first)) is None
            assert not solver.memo.entries and solver.checked == 0, sources_first
            assert caplog.messages[-1] == (
                "infeasible: cut overload at vertex 121: 40 demands must pass it, 39 fit")
            caplog.clear()
            assert exact.overloaded_cut(funnel(40, sources_first, jump=True)) is None

    def test_chain_cut_vertex_over_c_is_refuted(self, caplog):
        # three diamonds in a row, joined at 4 and 7; each demand has two or
        # more shortest paths, so none is pinned, and all three hold 4 at c = 2
        dag = Dag(10, diamond().edges + ((4, 5, 1), (4, 6, 1), (5, 7, 1), (6, 7, 1),
                                         (7, 8, 1), (7, 9, 1), (8, 10, 1), (9, 10, 1)))
        inst, solver = Instance(dag, ((1, 7), (1, 10), (4, 10)), 2), DisjointShortestSolver()
        with caplog.at_level("DEBUG", logger="dspc.exact"):
            assert solver.solve(inst) is None
        assert solver.pinned == () and solver.direct == ()
        assert not solver.memo.entries and solver.checked == 0
        assert caplog.messages == [
            "demands: 0 pinned, 0 direct, 3 searched",
            "infeasible: cut overload at vertex 4: 3 demands must pass it, 2 fit",
        ]
        assert brute_force_oracle(inst) is None

    def test_cut_vertex_at_c_still_routes(self):
        # z = 9 is met by exactly c = 2 windows, those of (1, 10) and (2, 11);
        # the window of (3, 8) meets both before z, so every demand is searched
        edges = ((1, 4, 1), (1, 5, 1), (2, 6, 1), (2, 7, 1), (3, 4, 1), (3, 5, 1), (4, 8, 1),
                 (5, 8, 1), (4, 9, 1), (5, 9, 1), (6, 9, 1), (7, 9, 1), (9, 10, 1), (9, 11, 1))
        inst = Instance(Dag(11, edges), ((1, 10), (2, 11), (3, 8)), 2)
        assert exact.overloaded_cut(inst) is None
        solver = DisjointShortestSolver()
        sol = solver.solve(inst)
        assert solver.pinned == () and solver.direct == () and solver.checked > 0
        assert verify_solution(inst, sol).feasible
        assert sol == brute_force_oracle(inst)

    def test_bottleneck_draws_are_refuted_in_edge_mode(self):
        # 200 draws at c = 2: 32 are infeasible, and 28 of those cross a gap
        # of Dag.order that holds more than c windows per edge
        refuted = 0
        for seed in range(200):
            rng = random.Random(seed)
            inst = bottleneck_instance(rng, rng.randint(4, 6), 2)
            solver = DisjointShortestSolver()
            routed = solver.solve(inst)
            if exact.overloaded_cut(inst) is not None:
                assert routed is None and brute_force_oracle(inst) is None, seed
                assert not solver.memo.entries and solver.checked == 0, seed
                refuted += 1
        assert refuted >= 25, refuted

    def test_agrees_with_oracle(self):
        # 3,000 draws from one stream: random, search-heavy and bottleneck in
        # turn, in both modes. The bound refutes only draws the oracle cannot
        # route, 128 in vertex mode and 614 in edge mode, and every solve
        # gives the oracle's verdict.
        rng, refuted = random.Random(5), Counter()
        for draw in range(3000):
            mode = rng.choice(("vertex", "edge"))
            if draw % 3 == 0:
                k = rng.randint(1, 6)
                inst = random_instance(
                    rng, n=rng.randint(1, 10), k=k, congestion=rng.randint(1, k), mode=mode,
                    edge_prob=rng.choice((0.3, 0.5, 0.7)), max_weight=rng.randint(1, 3),
                )
            elif draw % 3 == 1:
                k = rng.randint(2, 6)
                inst = search_heavy_instance(rng, k, rng.randint(1, k - 1), mode)
            else:
                inst = bottleneck_instance(rng, rng.randint(4, 6), rng.randint(1, 2))
            want = brute_force_oracle(inst)
            assert (solve_disjoint_shortest(inst) is None) == (want is None), draw
            if exact.overloaded_cut(inst) is not None:
                assert want is None, draw
                refuted[inst.mode] += 1
        assert refuted["vertex"] >= 100 and refuted["edge"] >= 500, refuted


class TestTightSubgraph:
    """Pebbles move along the tight edges of their own demands."""

    def test_tight_heads_are_second_vertices_of_shortest_paths(self):
        # vertex ids renamed and edges shuffled, so neither ids nor heads
        # ascend in out-edge order
        pairs = 0
        for seed in range(200):
            rng = random.Random(seed)
            base = random_dag(rng, n=rng.randint(2, 8), edge_prob=rng.choice((0.3, 0.6)),
                              max_weight=3)
            label = list(range(1, base.vertex_count + 1))
            rng.shuffle(label)
            edges = list(relabel(base, label).edges)
            rng.shuffle(edges)
            dag = Dag(base.vertex_count, tuple(edges))
            for t in range(1, dag.vertex_count + 1):
                b = dag.dist_to(t)
                for u in range(1, dag.vertex_count + 1):
                    paths = enumerate_all_paths(dag, u, t)
                    if u == t or not paths:
                        continue
                    shortest = min(weight for _, weight in paths)
                    seconds = {vertices[1] for vertices, weight in paths if weight == shortest}
                    want = [e for e in dag.out_edges[u] if e[1] in seconds]
                    assert exact._tight(dag.out_edges[u], b, u) == want, (seed, u, t)
                    pairs += 1
        assert pairs >= 1000, pairs

    def test_three_thousand_vertex_chain(self):
        # one backward sweep per demand and about 3,000 moves, far past the
        # recursion limit, on the search's explicit stack; an all-pairs
        # table of this chain alone takes seconds and peaks near 190 MB.
        # Bypasses 1-3001-3 and 2-3002-4 give each demand a second shortest
        # path, so none is pinned. The short demand (1, 3) meets both long
        # ones at c = 2, so none is routed directly and the search makes
        # every move; it leaves 2-3 to the first and sends the second over
        # its bypass.
        dag = Dag(3002, chain(3000).edges + ((1, 3001, 1), (3001, 3, 1), (2, 3002, 1), (3002, 4, 1)))
        inst = Instance(dag, ((1, 3000), (2, 2999), (1, 3)), 2)
        solver = DisjointShortestSolver()
        started = time.perf_counter()
        sol = solver.solve(inst)
        elapsed = time.perf_counter() - started
        assert solver.pinned == () and solver.direct == ()
        assert [p.vertices for p in sol.paths] == [
            tuple(range(1, 3001)), (2, 3002, *range(4, 3000)), (1, 3001, 3)]
        assert verify_solution(inst, sol).feasible
        assert elapsed < 1.5
        tracemalloc.start()
        try:
            solver.solve(inst)
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
        inst, solver = Instance(grid(3, 3), ((1, 6), (2, 9)), 1), DisjointShortestSolver()
        assert solver.solve(inst) is None
        dead = len(solver.memo.entries)
        assert 0 < dead < exact.MAX_DEAD_STATES
        monkeypatch.setattr(exact, "MAX_DEAD_STATES", dead)
        assert solver.solve(inst) is None
        monkeypatch.setattr(exact, "MAX_DEAD_STATES", dead - 1)
        with pytest.raises(LimitExceeded, match=f"after {dead - 1} dead states"):
            solver.solve(inst)
        assert len(solver.memo.entries) == dead - 1

    def test_budget_of_moves_checked(self, monkeypatch):
        # edge mode, c = 1: seven pebbles from seven sources meet at one vertex
        # with six out-edges, so no move from there fits. The enumeration still
        # visits every way to put a prefix of the movers on distinct edges,
        # while the memo stays small: only the move budget bounds the work.
        # Each source's edge to the last vertex, which reaches no terminal,
        # jumps over u, so overloaded_cut leaves the instance to the search.
        d = 6
        k, u = d + 1, d + 2
        edges = [(i, u, 1) for i in range(1, k + 1)] + [(u, u + j, 1) for j in range(1, d + 1)]
        terminals = range(u + d + 1, u + d + k + 1)
        edges += [(u + j, t, 1) for j in range(1, d + 1) for t in terminals]
        n = u + d + k + 1
        edges += [(i, n, 1) for i in range(1, k + 1)]
        dag, demands = Dag(n, tuple(edges)), tuple(zip(range(1, k + 1), terminals))
        inst, solver = Instance(dag, demands, 1, "edge"), DisjointShortestSolver()
        assert solver.solve(inst) is None
        assert brute_force_oracle(inst) is None
        # one move onto u per pebble; then, with j movers placed on distinct
        # edges in d!/(d-j)! ways, the next mover meets j full edges
        cut = sum(factorial(d) // factorial(d - j) * j for j in range(d + 1))
        assert solver.checked == k + cut == 9793
        assert len(solver.memo.entries) == k + 1
        monkeypatch.setattr(exact, "MAX_MOVES_CHECKED", solver.checked)
        assert solver.solve(inst) is None
        monkeypatch.setattr(exact, "MAX_MOVES_CHECKED", k + cut - 1)
        with pytest.raises(LimitExceeded, match=f"after {k + cut - 1} moves checked"):
            solver.solve(inst)
        assert solver.checked == k + cut - 1

    def test_dead_states_are_infeasible(self, search_only):
        # a dead state, restated as demands (position, terminal) at the same
        # budget and mode next to the pinned demands, is an instance the
        # oracle cannot route; the walks in turn are left out, so the search
        # records as many dead states as it did without them
        for mode in ("vertex", "edge"):
            dead = 0
            for seed in range(40):
                rng = random.Random(seed)
                k = rng.randint(2, 4)
                c = rng.randint(1, 2) if mode == "vertex" else 1
                inst = search_heavy_instance(rng, k, c, mode)
                solver = DisjointShortestSolver()
                solver.solve(inst)
                pinned = tuple(inst.demands[i] for i in solver.pinned)
                routed = solver.pinned + solver.direct
                terminals = [t for i, (_, t) in enumerate(inst.demands) if i not in routed]
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

    def test_more_demands_than_the_recursion_limit(self):
        # one single-edge demand per disjoint edge: each has one path, and
        # the backtracking goes one level deeper per demand
        k = sys.getrecursionlimit() + 200
        dag = Dag(2 * k, tuple((2 * i - 1, 2 * i, 1) for i in range(1, k + 1)))
        inst = Instance(dag, tuple((2 * i - 1, 2 * i) for i in range(1, k + 1)), 1)
        sol = brute_force_oracle(inst)
        assert [p.vertices for p in sol.paths] == [(2 * i - 1, 2 * i) for i in range(1, k + 1)]

    def test_one_backward_sweep_per_demand_and_pass(self, monkeypatch):
        # the oracle sweeps back from each demand's terminal once and hands
        # the sweep to both the count and the listing of its paths; nothing
        # sweeps forward from a source
        calls = Counter()

        def counting(name):
            sweep = getattr(Dag, name)

            def counted(self, *args):
                calls[name] += 1
                return sweep(self, *args)

            return counted

        for name in ("dist_from", "dist_to"):
            monkeypatch.setattr(Dag, name, counting(name))
        inst = Instance(diamond(), ((1, 4), (1, 4), (2, 2)), 2)
        sol = brute_force_oracle(inst)
        assert [p.vertices for p in sol.paths] == [(1, 2, 4), (1, 3, 4), (2,)]
        assert calls == {"dist_to": inst.k}


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
