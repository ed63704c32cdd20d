"""Congested routing, and terminal isolation, vertex copying and projection."""

from __future__ import annotations

import random
import time
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dspc import (
    EDGE,
    VERTEX,
    Instance,
    InvariantViolation,
    Path,
    ProjectionInvalid,
    ShapeMismatch,
    Solution,
    brute_force_oracle,
    edge_split_transform,
    emit_instance,
    expand_congestion,
    isolate_terminals,
    parse_instance,
    project_solution,
    reachable,
    solve_disjoint_shortest,
    solve_edsp,
    solve_kdspc,
    solve_with_congestion,
    verify_solution,
)
from dspc import exact
from dspc.congestion import compose
from dspc.randgen import bottleneck_instance, random_instance, search_heavy_instance

from helpers import (
    block_family_draw,
    chain,
    diamond,
    grid_dag,
    grid_family_draw,
    large_random_draw,
    lifo_relabelling,
    relabelled_search_heavy_instance,
    search_heavy_draw,
)


class TestIsolateTerminals:
    def test_chain_demand_shifts_distance_by_two(self):
        inst = Instance(chain(3), ((1, 3),), 1)
        isolated, tm = isolate_terminals(inst)
        assert isolated.dag.vertex_count == 5
        assert isolated.demands == ((4, 5),)
        assert isolated.dag.dist_from(4)[5] == 4
        assert tm.target.demands == ((4, 5),)

    def test_shared_source_gets_two_fresh_sources(self):
        inst = Instance(chain(3), ((1, 2), (1, 3)), 2)
        isolated, _ = isolate_terminals(inst)
        (s1, _), (s2, _) = isolated.demands
        assert s1 != s2
        assert (s1, 1, 1) in isolated.dag.edges
        assert (s2, 1, 1) in isolated.dag.edges

    def test_distance_preserved_plus_two_for_every_demand(self):
        for seed in range(30):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 3),
                                   congestion=rng.randint(1, 2))
            isolated, _ = isolate_terminals(inst)
            for (s, t), (ns, nt) in zip(inst.demands, isolated.demands):
                assert isolated.dag.dist_from(ns)[nt] == inst.dag.dist_from(s)[t] + 2

    def test_feasibility_preserved(self):
        for seed in range(40):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 3),
                                   congestion=rng.randint(1, 2))
            isolated, _ = isolate_terminals(inst)
            assert (brute_force_oracle(inst) is None) == (brute_force_oracle(isolated) is None)

    def test_zero_length_demand(self):
        inst = Instance(chain(3), ((2, 2),), 1)
        isolated, _ = isolate_terminals(inst)
        (s, t), = isolated.demands
        assert isolated.dag.dist_from(s)[t] == 2


class TestExpandCongestion:
    def test_chain_doubled_interior(self):
        inst = Instance(chain(3), ((1, 3), (1, 3)), 2)
        isolated, _ = isolate_terminals(inst)
        expanded, tm = expand_congestion(isolated)
        assert expanded.congestion == 1
        # 3 interior vertices doubled + 4 terminals kept single
        assert expanded.dag.vertex_count == 2 * 3 + 4
        sol = solve_disjoint_shortest(expanded)
        assert sol is not None  # each copy track routes one demand

    def test_identity_when_budget_is_one(self):
        inst = Instance(diamond(), ((1, 4),), 1)
        isolated, _ = isolate_terminals(inst)
        expanded, tm = expand_congestion(isolated)
        assert expanded.dag.vertex_count == isolated.dag.vertex_count
        assert set(expanded.dag.edges) == set(isolated.dag.edges)
        assert expanded.demands == isolated.demands

    def test_requires_isolated_terminals(self):
        # vertex 1 of the diamond has out-degree 2, so it is not isolated
        inst = Instance(diamond(), ((1, 4),), 2)
        with pytest.raises(InvariantViolation):
            expand_congestion(inst)
        shared = Instance(diamond(), ((1, 4), (1, 4)), 2)
        with pytest.raises(InvariantViolation):
            expand_congestion(shared)

    def test_acyclic_and_size_contract(self):
        # vertices: c copies per original plus 2k kept terminals; edges: up to
        # c^2 wires per original edge plus c per gadget edge
        for seed in range(30):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 3),
                                   congestion=rng.randint(1, 3))
            isolated, iso_map = isolate_terminals(inst)
            expanded, _ = expand_congestion(isolated)
            expanded.dag.order  # raises on a cycle
            c, n, m, k = inst.congestion, inst.dag.vertex_count, inst.dag.edge_count, inst.k
            assert expanded.dag.vertex_count <= c * n + 2 * k
            assert expanded.dag.edge_count <= c * c * m + 2 * c * k

    def test_feasibility_preserved_both_directions(self):
        for seed in range(40):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 3),
                                   congestion=rng.randint(1, 2))
            isolated, _ = isolate_terminals(inst)
            expanded, _ = expand_congestion(isolated)
            want = brute_force_oracle(inst)
            got = brute_force_oracle(expanded)
            assert (got is None) == (want is None)


class TestProjectSolution:
    def _pipeline(self, inst):
        isolated, iso_map = isolate_terminals(inst)
        expanded, exp_map = expand_congestion(isolated)
        return expanded, compose(iso_map, exp_map)

    def test_identity_case_strips_gadgets_only(self):
        inst = Instance(chain(3), ((1, 3),), 1)
        expanded, tm = self._pipeline(inst)
        routed = solve_disjoint_shortest(expanded)
        projected = project_solution(routed, tm)
        assert projected.paths[0].vertices == (1, 2, 3)

    def test_copies_merge_back_onto_one_path(self):
        inst = Instance(chain(3), ((1, 3), (1, 3)), 2)
        expanded, tm = self._pipeline(inst)
        routed = solve_disjoint_shortest(expanded)
        projected = project_solution(routed, tm)
        assert [p.vertices for p in projected.paths] == [(1, 2, 3), (1, 2, 3)]

    def test_random_projections_verify(self):
        for seed in range(40):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 3),
                                   congestion=rng.randint(1, 2))
            expanded, tm = self._pipeline(inst)
            routed = solve_disjoint_shortest(expanded)
            if routed is None:
                continue
            projected = project_solution(routed, tm)
            assert verify_solution(inst, projected).feasible

    def test_tampered_solution_raises(self):
        inst = Instance(chain(3), ((1, 3),), 1)
        expanded, tm = self._pipeline(inst)
        routed = solve_disjoint_shortest(expanded)
        wrong = Solution((Path(routed.paths[0].vertices[:-1], 3),))
        with pytest.raises(ProjectionInvalid):
            project_solution(wrong, tm)

    def test_wrong_path_count_raises_shape_mismatch(self):
        # one path too many or too few, through the vertex pipeline and the edge split
        expanded, tm = self._pipeline(Instance(chain(3), ((1, 3), (1, 3)), 2))
        split, split_map = edge_split_transform(Instance(chain(3), ((1, 3),), 1, EDGE))
        for target, mapping in ((expanded, tm), (split, split_map)):
            paths = solve_disjoint_shortest(target).paths
            for wrong in (paths + paths[:1], paths[:-1]):
                with pytest.raises(ShapeMismatch):
                    project_solution(Solution(wrong), mapping)


class TestSolveWithCongestion:
    def test_budget_at_least_k_and_reachable_is_feasible(self):
        for seed in range(20):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(2, 6), k=rng.randint(1, 3),
                                   congestion=3)
            if all(reachable(inst.dag, s, t) for s, t in inst.demands):
                assert solve_with_congestion(inst) is not None

    def test_diamond_double_demand_at_two(self):
        inst = Instance(diamond(), ((1, 4), (1, 4)), 2)
        sol = solve_with_congestion(inst)
        assert sol is not None
        assert verify_solution(inst, sol).feasible
        assert brute_force_oracle(inst) is not None

    def test_equal_demands_keep_their_own_paths(self):
        # the two (1,4) demands must take different arms: one arm already
        # carries a single-vertex demand, so each vertex has room for one more
        inst = Instance(diamond(), ((2, 2), (3, 3), (1, 4), (1, 4)), 2)
        sol = solve_with_congestion(inst)
        assert sol is not None
        assert verify_solution(inst, sol).feasible

    def test_overloaded_endpoint_rejected_without_search(self):
        # three demands end at vertex 25 but only two paths fit through it
        dag, _ = grid_dag(5, 5)
        inst = Instance(dag, ((1, 25), (6, 25), (2, 25), (2, 19)), 2)
        started = time.monotonic()
        assert solve_with_congestion(inst) is None
        assert time.monotonic() - started < 1.0
        assert brute_force_oracle(inst) is None

    def test_unreachable_demand_absent(self):
        assert solve_with_congestion(Instance(chain(3), ((3, 1),), 2)) is None

    def test_edge_mode_routes_natively(self):
        # the two (1,4) demands share vertices 1 and 4, which only edge mode allows
        demands = ((1, 4), (1, 4))
        edge_inst = Instance(diamond(), demands, 1, "edge")
        sol = solve_with_congestion(edge_inst)
        assert sol is not None
        assert verify_solution(edge_inst, sol).feasible
        assert solve_with_congestion(Instance(diamond(), demands, 1, "vertex")) is None

    def test_transformed_solutions_are_vertex_disjoint(self):
        # copy independence: the routed solution on the expanded graph is
        # disjoint before any merging happens
        for seed in range(25):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 3),
                                   congestion=2)
            isolated, iso_map = isolate_terminals(inst)
            expanded, exp_map = expand_congestion(isolated)
            routed = solve_disjoint_shortest(expanded)
            if routed is None:
                continue
            assert verify_solution(expanded, routed).feasible
            seen = set()
            for path in routed.paths:
                for v in path.vertices:
                    assert v not in seen
                    seen.add(v)

    def test_matches_oracle_on_seeded_instances(self):
        for seed in range(100):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 3),
                                   congestion=rng.randint(1, 2))
            got = solve_with_congestion(inst)
            want = brute_force_oracle(inst)
            assert (got is None) == (want is None)
            if got is not None:
                assert verify_solution(inst, got).feasible


class TestNativeAgainstReductions:
    """The native solver, the paper's reduction pipeline and the oracle agree.

    No solve route runs the reductions, so this is where they stay checked
    end to end: split edges in edge mode, isolate terminals, copy vertices
    c times, solve at congestion 1 and project back once through the
    composed map (``solve_edsp`` also checks the split on its own).
    """

    @staticmethod
    def _reduced(inst):
        split = None
        if inst.mode == EDGE:
            inst, split = edge_split_transform(inst)
        isolated, iso_map = isolate_terminals(inst)
        expanded, exp_map = expand_congestion(isolated)
        routed = solve_disjoint_shortest(expanded)
        if routed is None:
            return None
        tm = compose(iso_map, exp_map)
        return project_solution(routed, tm if split is None else compose(split, tm))

    @staticmethod
    def _instances(mode):
        for seed in range(300):
            rng = random.Random(seed)
            k = rng.randint(1, 5)
            yield random_instance(rng, n=rng.randint(1, 7), k=k,
                                  congestion=rng.randint(1, k), mode=mode)

    def test_vertex_mode(self):
        for inst in self._instances("vertex"):
            got = solve_with_congestion(inst)
            reduced = self._reduced(inst)
            want = brute_force_oracle(inst)
            assert (got is None) == (reduced is None) == (want is None)
            if got is not None:
                assert verify_solution(inst, got).feasible

    def test_edge_mode(self):
        for inst in self._instances("edge"):
            got = solve_with_congestion(inst)
            split = solve_edsp(inst)
            reduced = self._reduced(inst)
            want = brute_force_oracle(inst)
            assert (got is None) == (split is None) == (reduced is None) == (want is None)
            if got is not None:
                assert verify_solution(inst, got).feasible

    # No search_heavy_instance demand is pinned, so every draw on which
    # more than c demands can meet reaches the pebbling search. Edge
    # budgets above 1 leave nearly every such draw feasible, so its edge
    # mode draws c = 1 and at least 4 demands; the bottleneck draws cover
    # edge mode at c = 2, and the relabelled case draws graphs with an
    # edge from a higher id to a lower one. The seed
    # fixes the draws apart from the source of ``check``; they still depend
    # on the hypothesis version, which CI pins.
    @pytest.mark.parametrize("smallest_k, congestions, draw", (
        pytest.param(2, (1, 3), partial(search_heavy_instance, mode=VERTEX), id="vertex-2-3"),
        pytest.param(2, (1, 3), relabelled_search_heavy_instance, id="vertex-relabelled"),
        pytest.param(4, (1, 1), partial(search_heavy_instance, mode=EDGE), id="edge-4-1"),
        pytest.param(4, (2, 2), bottleneck_instance, id="edge-bottleneck-4-2"),
    ))
    def test_search_heavy_draws(self, smallest_k, congestions, draw):
        verdicts = Counter()

        @seed(2020)
        @settings(max_examples=150, deadline=None, database=None)
        @given(st.integers(0, 2**32), st.integers(smallest_k, 6), st.data())
        def check(rng_seed, k, data):
            smallest_c, largest_c = congestions
            c = data.draw(st.integers(smallest_c, min(k, largest_c)), label="congestion")
            inst = draw(random.Random(rng_seed), k, c)
            assert parse_instance(emit_instance(inst)) == inst
            infeasible = brute_force_oracle(inst) is None
            routes = [solve_with_congestion(inst), self._reduced(inst)]
            routes += [solve_kdspc(inst) if inst.mode == VERTEX else solve_edsp(inst)]
            for routed in routes:
                assert (routed is None) == infeasible
                assert routed is None or verify_solution(inst, routed).feasible
            verdicts[infeasible] += 1

        check()
        assert min(verdicts[False], verdicts[True]) >= 10, verdicts


class TestOrderInvariance:
    """Any topological sweep order gives the same verdict and a routing that verifies.

    Each draw is solved as given, again with its vertices renamed by the
    search's own LIFO Kahn order, so that the direct and pin passes sweep in
    that order too, and the renamed routing is mapped back and re-verified.
    It is solved a third time with its search swept in ``Dag.order``, the
    smallest id first, and that routing verifies too. No oracle is needed,
    so the draws may be larger than ``brute_force_oracle`` can enumerate.
    """

    @pytest.mark.parametrize("draw, count", (
        pytest.param(partial(large_random_draw, VERTEX), 300, id="random-vertex"),
        pytest.param(partial(large_random_draw, EDGE), 300, id="random-edge"),
        pytest.param(partial(search_heavy_draw, VERTEX, 2, 3), 150, id="search-heavy-vertex"),
        pytest.param(partial(search_heavy_draw, EDGE, 4, 1), 150, id="search-heavy-edge"),
        pytest.param(lambda rng: bottleneck_instance(rng, rng.randint(4, 6), 2), 150,
                     id="bottleneck"),
        pytest.param(grid_family_draw, 40, id="grid-family"),
        pytest.param(block_family_draw, 12, id="block-family"),
    ))
    def test_verdict_and_routing_survive_relabelling(self, draw, count, monkeypatch):
        verdicts = Counter()
        reordered = 0
        for rng_seed in range(count):
            inst = draw(random.Random(rng_seed))
            renamed, order = lifo_relabelling(inst)
            reordered += order != list(inst.dag.order)
            got = solve_with_congestion(inst)
            moved = solve_with_congestion(renamed)
            with monkeypatch.context() as patch:
                patch.setattr(exact, "sweep_order", lambda dag: (dag.order, dag.position))
                # solve_with_congestion re-verifies the routing it returns
                swept = solve_with_congestion(inst)
            assert (got is None) == (moved is None) == (swept is None), rng_seed
            if moved is not None:
                back = Solution(tuple(Path(tuple(order[v - 1] for v in path.vertices), path.length)
                                      for path in moved.paths))
                assert verify_solution(inst, back).feasible, rng_seed
            verdicts[got is None] += 1
        # both verdicts, and sweep orders that differ from the id order
        assert min(verdicts[False], verdicts[True]) >= max(1, count // 30), verdicts
        assert reordered >= count // 5, reordered


class TestSearchGenerators:
    """The search-heavy and bottleneck generators refuse, before drawing, a k that cannot fit."""

    @pytest.mark.parametrize("make, largest", (
        pytest.param(partial(search_heavy_instance, congestion=1), 7, id="search-heavy"),
        pytest.param(partial(bottleneck_instance, congestion=2), 8, id="bottleneck"),
    ))
    def test_largest_k_returns_and_larger_raises(self, make, largest):
        for rng_seed in range(3):
            assert len(make(random.Random(rng_seed), largest).demands) == largest
        for k in (largest + 1, 20):
            rng = random.Random(0)
            state = rng.getstate()
            with pytest.raises(InvariantViolation, match=f"at most {largest} "):
                make(rng, k)
            assert rng.getstate() == state
