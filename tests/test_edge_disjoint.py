"""Edge-to-node transform and the edge-congestion solver."""

from __future__ import annotations

import random

import pytest

from dspc import (
    Dag,
    Instance,
    InvariantViolation,
    brute_force_oracle,
    edge_split_transform,
    solve_edsp,
    topo_order,
    verify_solution,
)
from dspc.randgen import random_instance

from helpers import chain, grid_dag


class TestEdgeSplitTransform:
    def test_chain_becomes_four_vertex_chain(self):
        inst = Instance(chain(3), ((1, 3),), 1, "edge")
        h_inst, emap = edge_split_transform(inst)
        assert h_inst.dag.vertex_count == 4
        assert h_inst.mode == "vertex"
        s, t = h_inst.demands[0]
        assert h_inst.dag.dist_from(s)[t] == 2

    def test_requires_edge_mode(self):
        with pytest.raises(InvariantViolation):
            edge_split_transform(Instance(chain(3), ((1, 3),), 1))

    def test_shared_bridge_is_a_shared_node(self):
        dag = Dag(2, ((1, 2, 1),))
        inst = Instance(dag, ((1, 2), (1, 2)), 1, "edge")
        h_inst, _ = edge_split_transform(inst)
        assert brute_force_oracle(h_inst) is None
        assert brute_force_oracle(inst) is None

    def test_lengths_preserved_per_demand(self):
        for seed in range(40):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 2),
                                   congestion=1, mode="edge")
            h_inst, _ = edge_split_transform(inst)
            for (s, t), (hs, ht) in zip(inst.demands, h_inst.demands):
                assert h_inst.dag.dist_from(hs)[ht] == inst.dag.dist_from(s)[t]

    def test_transformed_graph_is_acyclic(self):
        for seed in range(20):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 2),
                                   congestion=1, mode="edge")
            h_inst, _ = edge_split_transform(inst)
            topo_order(h_inst.dag)

    def test_feasibility_equivalence_against_oracles(self):
        for seed in range(60):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 2),
                                   congestion=1, mode="edge")
            h_inst, _ = edge_split_transform(inst)
            assert (brute_force_oracle(h_inst) is None) == (brute_force_oracle(inst) is None)


class TestSolveEdsp:
    def test_single_demand_takes_a_shortest_path(self):
        inst = Instance(chain(4), ((1, 4),), 1, "edge")
        sol = solve_edsp(inst)
        assert sol is not None and sol.paths[0].length == 3

    def test_crossing_grid_demands(self):
        dag, vid = grid_dag(2, 2)
        demands = ((vid[(0, 0)], vid[(1, 1)]), (vid[(0, 1)], vid[(1, 0)]))
        inst = Instance(dag, demands, 1, "edge")
        got = solve_edsp(inst)
        want = brute_force_oracle(inst)
        assert (got is None) == (want is None)

    def test_unreachable_demand_absent(self):
        assert solve_edsp(Instance(chain(3), ((3, 1),), 1, "edge")) is None

    def test_rejects_vertex_mode(self):
        with pytest.raises(InvariantViolation):
            solve_edsp(Instance(chain(3), ((1, 3),), 1))

    def test_zero_length_demand_routes_as_single_vertex(self):
        inst = Instance(chain(3), ((2, 2), (1, 3)), 1, "edge")
        sol = solve_edsp(inst)
        assert sol is not None
        assert sol.paths[0].vertices == (2,)

    def test_shared_vertices_are_fine_in_edge_mode(self):
        # two demands crossing at a vertex but using different edges
        dag = Dag(5, ((1, 3, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1)))
        inst = Instance(dag, ((1, 4), (2, 5)), 1, "edge")
        sol = solve_edsp(inst)
        assert sol is not None
        assert verify_solution(inst, sol).feasible

    def test_edge_budget_two_allows_sharing_the_bridge(self):
        dag = Dag(2, ((1, 2, 1),))
        inst = Instance(dag, ((1, 2), (1, 2)), 2, "edge")
        sol = solve_edsp(inst)
        assert sol is not None
        assert verify_solution(inst, sol).feasible

    def test_round_trip_agrees_with_oracle_and_verifies(self):
        for seed in range(80):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 2),
                                   congestion=rng.randint(1, 2), mode="edge")
            got = solve_edsp(inst)
            want = brute_force_oracle(inst)
            assert (got is None) == (want is None)
            if got is not None:
                assert verify_solution(inst, got).feasible
