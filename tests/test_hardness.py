"""Gadget generators: grid family, block family, and their planted witnesses."""

from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest

from dspc import (
    ColorMissing,
    ColoredGraph,
    Dag,
    Instance,
    InvariantViolation,
    PatternGraph,
    PatternNotCubicBipartite,
    UndirectedGraph,
    WitnessInvalid,
    brute_force_oracle,
    clique_to_mcc,
    complete_bipartite_pattern,
    find_colorful_clique,
    find_homomorphism,
    mcc_to_planar_edsp,
    psi_to_dspc,
    solve_edsp,
    verify_solution,
)
from dspc.exact import count_shortest_paths
from dspc.hardness import _verified, plant_colorful_clique, random_colored_graph, random_host

from helpers import brute_colorful_clique, brute_homomorphism


class TestCliqueToMcc:
    def test_single_edge_two_colors(self):
        g = UndirectedGraph(2, ((1, 2),))
        cg = clique_to_mcc(g, 2)
        assert cg.graph.vertex_count == 4
        assert brute_colorful_clique(cg, 2) is not None

    def test_triangle_lifts_and_respects_clique_size(self):
        triangle = UndirectedGraph(3, ((1, 2), (1, 3), (2, 3)))
        assert brute_colorful_clique(clique_to_mcc(triangle, 3), 3) is not None
        assert brute_colorful_clique(clique_to_mcc(triangle, 4), 4) is None

    def test_edgeless_graph_has_no_clique(self):
        g = UndirectedGraph(3, ())
        assert brute_colorful_clique(clique_to_mcc(g, 2), 2) is None

    def test_colors_come_out_sorted(self):
        g = UndirectedGraph(3, ((1, 2),))
        cg = clique_to_mcc(g, 3)
        assert list(cg.colors) == sorted(cg.colors)

    def test_lift_equivalence_on_random_graphs(self):
        for seed in range(25):
            rng = random.Random(seed)
            n = rng.randint(2, 5)
            edges = tuple((u, v) for u, v in combinations(range(1, n + 1), 2)
                          if rng.random() < 0.5)
            g = UndirectedGraph(n, edges)
            for k in (2, 3):
                has_clique = any(
                    all(g.has_edge(u, v) for u, v in combinations(combo, 2))
                    for combo in combinations(range(1, n + 1), k)
                )
                lifted = clique_to_mcc(g, k)
                assert (brute_colorful_clique(lifted, k) is not None) == has_clique
                assert (find_colorful_clique(lifted, k) is not None) == has_clique


class TestColoredGraph:
    def test_classes_split_the_vertices_by_color_in_id_order(self):
        cg = ColoredGraph(UndirectedGraph(4, ()), (1, 2, 1, 2), 2)
        assert cg.classes == ((1, 3), (2, 4))
        assert (cg.color_class(1), cg.color_class(2)) == cg.classes

    def test_color_class_outside_the_colors_is_empty(self):
        cg = ColoredGraph(UndirectedGraph(3, ()), (1, 2, 2), 2)
        assert cg.color_class(0) == cg.color_class(3) == ()


class TestFindColorfulClique:
    def test_more_colors_asked_than_the_graph_has(self):
        complete = UndirectedGraph(4, tuple(combinations(range(1, 5), 2)))
        cg = ColoredGraph(complete, (1, 1, 2, 2), 2)
        assert find_colorful_clique(cg, 2) == (1, 3)
        assert find_colorful_clique(cg, 3) is None

    def test_first_clique_in_lexicographic_order(self):
        for seed in range(60):
            rng = random.Random(seed)
            k = rng.randint(2, 4)
            cg = random_colored_graph(rng, rng.randint(k, 9), k, rng.choice((0.5, 0.7, 0.9)))
            if rng.random() < 0.5:
                cg, _ = plant_colorful_clique(rng, cg)
            assert find_colorful_clique(cg, k) == brute_colorful_clique(cg, k), seed

    def test_more_colors_than_the_recursion_limit(self):
        # one vertex per color, so the search goes one level deeper per color
        low = 250
        k = low + 200
        complete = UndirectedGraph(k, tuple(combinations(range(1, k + 1), 2)))
        colors = tuple(range(1, k + 1))
        one_missing = UndirectedGraph(k, complete.edges[1:])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(low)
        try:
            found = find_colorful_clique(ColoredGraph(complete, colors, k), k)
            missing = find_colorful_clique(ColoredGraph(one_missing, colors, k), k)
        finally:
            sys.setrecursionlimit(limit)
        assert found == colors
        assert missing is None


class TestGridGenerator:
    def test_vertex_count_matches_recount(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(2, 5)
            cg = random_colored_graph(rng, n, 2)
            inst, layout = mcc_to_planar_edsp(cg, 2)
            unmerged = sum(
                1 for i in range(1, n + 1) for j in range(1, n + 1)
                if (i, j) not in layout.merged_cells
            )
            merged = n * n - unmerged
            # out cells + split vertices (merged cells share one) + row/col
            # boundary pairs + per-color endpoints
            expected = n * n + (2 * n * n - merged) + 4 * n + 4 * 2
            assert inst.dag.vertex_count == expected
            assert inst.dag.vertex_count <= 3 * n * n + 4 * n + 8  # O(n^2 + k)

    def test_all_demand_distances_equal_2n_plus_3(self):
        for seed in range(15):
            rng = random.Random(seed)
            n = rng.randint(2, 5)
            cg = random_colored_graph(rng, n, 2)
            inst, _ = mcc_to_planar_edsp(cg, 2)
            dists = {inst.dag.dist_from(s)[t] for s, t in inst.demands}
            assert dists == {2 * n + 3}

    def test_generated_graph_is_acyclic(self):
        rng = random.Random(3)
        cg = random_colored_graph(rng, 5, 2)
        inst, _ = mcc_to_planar_edsp(cg, 2)
        inst.dag.order

    def test_missing_color_rejected(self):
        cg = ColoredGraph(UndirectedGraph(2, ()), (1, 1), 2)
        with pytest.raises(ColorMissing):
            mcc_to_planar_edsp(cg, 2)

    def test_planting_into_a_missing_color_rejected(self):
        # refused before any draw, as the reduction refuses the same graph
        cg = ColoredGraph(UndirectedGraph(2, ()), (1, 1), 2)
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ColorMissing, match="color 2"):
            plant_colorful_clique(rng, cg)
        assert rng.getstate() == state

    def test_unsorted_colors_rejected(self):
        cg = ColoredGraph(UndirectedGraph(2, ()), (2, 1), 2)
        with pytest.raises(InvariantViolation):
            mcc_to_planar_edsp(cg, 2)

    def test_orthogonal_paths_share_an_edge_iff_merged(self):
        # exhaustive over every row/column pair of small grids
        for seed in range(10):
            rng = random.Random(seed)
            n = rng.randint(2, 4)
            cg = random_colored_graph(rng, n, 2)
            inst, layout = mcc_to_planar_edsp(cg, 2)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    row = layout.row_path_vertices(cg.color_of(i), i)
                    col = layout.col_path_vertices(cg.color_of(j), j)
                    row_edges = set(zip(row, row[1:]))
                    col_edges = set(zip(col, col[1:]))
                    shared = row_edges & col_edges
                    if (i, j) in layout.merged_cells:
                        assert shared, (i, j)
                    else:
                        assert not shared, (i, j)

    def test_planted_clique_routing_verifies(self):
        for seed in range(15):
            rng = random.Random(seed)
            cg = random_colored_graph(rng, rng.randint(2, 5), 2)
            cg, witness = plant_colorful_clique(rng, cg)
            inst, layout = mcc_to_planar_edsp(cg, 2)
            sol = layout.routing(witness)
            assert verify_solution(inst, sol).feasible

    def test_cliqueless_instances_are_infeasible(self):
        found = 0
        for seed in range(40):
            rng = random.Random(seed)
            cg = random_colored_graph(rng, rng.randint(2, 5), 2, edge_prob=0.3)
            if brute_colorful_clique(cg, 2) is not None:
                continue
            found += 1
            inst, _ = mcc_to_planar_edsp(cg, 2)
            assert solve_edsp(inst) is None
        assert found >= 5  # the sweep must actually exercise no-instances

    def test_feasibility_equals_clique_existence(self):
        for seed in range(30):
            rng = random.Random(seed)
            cg = random_colored_graph(rng, rng.randint(2, 5), 2)
            inst, _ = mcc_to_planar_edsp(cg, 2)
            assert (solve_edsp(inst) is not None) == (
                brute_colorful_clique(cg, 2) is not None
            )

    def test_corrupted_witness_rejected(self):
        rng = random.Random(5)
        cg = random_colored_graph(rng, 4, 2)
        cg, witness = plant_colorful_clique(rng, cg)
        inst, layout = mcc_to_planar_edsp(cg, 2)
        with pytest.raises(WitnessInvalid):
            layout.routing(witness[::-1])
        with pytest.raises(WitnessInvalid):
            layout.routing(witness[:1])


class TestPatternAndHost:
    def test_complete_bipartite_pattern_shape(self):
        pattern = complete_bipartite_pattern()
        assert pattern.vertex_count == 6 and pattern.edge_count == 9

    def test_rejects_non_cubic(self):
        with pytest.raises(PatternNotCubicBipartite):
            PatternGraph(6, (((1, 4)),) * 1)
        with pytest.raises(PatternNotCubicBipartite):
            PatternGraph(5, ())

    def test_rejects_edge_inside_a_side(self):
        with pytest.raises(PatternNotCubicBipartite):
            PatternGraph(6, ((1, 2), (1, 5), (1, 6), (2, 5), (2, 6), (3, 4),
                             (3, 5), (3, 6), (4, 5)))

    def test_host_validation(self):
        pattern = complete_bipartite_pattern()
        five_colors = ColoredGraph(UndirectedGraph(5, ()), (1, 2, 3, 4, 5), 5)
        empty_class = ColoredGraph(UndirectedGraph(6, ()), (1, 2, 3, 4, 5, 5), 6)
        for host in (five_colors, empty_class):
            with pytest.raises(InvariantViolation):
                psi_to_dspc(pattern, host, 2)
        # an edge inside one class is accepted and changes nothing
        colors = (1, 2, 3, 4, 5, 6, 1)
        plain = ColoredGraph(UndirectedGraph(7, pattern.edges), colors, 6)
        inner = ColoredGraph(UndirectedGraph(7, pattern.edges + ((1, 7),)), colors, 6)
        assert psi_to_dspc(pattern, inner, 2)[0] == psi_to_dspc(pattern, plain, 2)[0]
        with pytest.raises(InvariantViolation):
            random_host(random.Random(0), pattern, (1, 0, 1, 1, 1, 1))
        with pytest.raises(InvariantViolation):
            random_host(random.Random(0), pattern, (1,) * 6, edge_prob=1.5)
        # one class size per pattern vertex, no fewer and no more
        for sizes in ([2, 2, 2], [2] * 7):
            with pytest.raises(InvariantViolation, match="one class size per pattern vertex"):
                random_host(random.Random(0), pattern, sizes)


class TestBlockGenerator:
    def _k33_unit_instance(self, c=2):
        pattern = complete_bipartite_pattern()
        host = ColoredGraph(UndirectedGraph(6, pattern.edges), (1, 2, 3, 4, 5, 6), 6)
        return psi_to_dspc(pattern, host, c)

    def test_demand_count_formula(self):
        inst, layout = self._k33_unit_instance(c=2)
        assert inst.k == 6 * (2 * (2 - 1) + 1) + 9 == 27
        inst1, _ = self._k33_unit_instance(c=1)
        assert inst1.k == 6 * 1 + 9 == 15
        inst3, _ = self._k33_unit_instance(c=3)
        assert inst3.k == 6 * 5 + 9 == 39

    def test_link_demands_have_distance_exactly_five(self):
        inst, layout = self._k33_unit_instance()
        for l in range(1, 10):
            s, t = inst.demands[layout.demand_index[("edge", l)]]
            assert inst.dag.dist_from(s)[t] == 5

    def test_blocking_demands_have_unique_shortest_paths(self):
        inst, layout = self._k33_unit_instance()
        for i in range(1, 7):
            upper = inst.demands[layout.demand_index[("upper", i, 0)]]
            lower = inst.demands[layout.demand_index[("lower", i, 0)]]
            assert count_shortest_paths(inst.dag, *upper) == 1
            assert count_shortest_paths(inst.dag, *lower) == 1

    def test_vertex_count_formula(self):
        pattern = complete_bipartite_pattern()
        for sizes in ((1,) * 6, (2,) * 6, (1, 2, 1, 2, 1, 2)):
            rng = random.Random(0)
            host, _ = random_host(rng, pattern, sizes, plant=True)
            inst, _ = psi_to_dspc(pattern, host, 2)
            expected = sum(2 * (s + 1 + 9 * s) for s in sizes) + 2 * 9
            assert inst.dag.vertex_count == expected

    def test_generated_graph_is_acyclic(self):
        inst, _ = self._k33_unit_instance()
        inst.dag.order

    def test_planted_witness_routing_verifies(self):
        pattern = complete_bipartite_pattern()
        for seed in range(10):
            rng = random.Random(seed)
            sizes = tuple(rng.randint(1, 3) for _ in range(6))
            host, witness = random_host(rng, pattern, sizes, plant=True)
            for c in (1, 2, 3):
                inst, layout = psi_to_dspc(pattern, host, c)
                sol = layout.routing(witness)
                assert verify_solution(inst, sol).feasible

    def test_cross_demand_shortest_paths_encode_window_choices(self):
        pattern = complete_bipartite_pattern()
        rng = random.Random(1)
        host, _ = random_host(rng, pattern, (3,) * 6, plant=True)
        inst, layout = psi_to_dspc(pattern, host, 2)
        # one shortest route per window
        for i in range(1, 7):
            cross = inst.demands[layout.demand_index[("cross", i)]]
            assert count_shortest_paths(inst.dag, *cross) == 3

    def test_feasibility_matches_homomorphism_existence_unit_classes(self):
        # with one host member per class the oracle stays tiny: blocking and
        # cross demands have unique shortest paths, links at most one
        pattern = complete_bipartite_pattern()
        for seed in range(25):
            rng = random.Random(seed)
            edges = tuple(edge for edge in pattern.edges if rng.random() < 0.8)
            host = ColoredGraph(UndirectedGraph(6, edges), (1, 2, 3, 4, 5, 6), 6)
            inst, _ = psi_to_dspc(pattern, host, 1)
            feasible = brute_force_oracle(inst) is not None
            assert feasible == (find_homomorphism(pattern, host) is not None)

    def test_corrupted_witness_rejected(self):
        pattern = complete_bipartite_pattern()
        rng = random.Random(2)
        host, witness = random_host(rng, pattern, (2,) * 6, plant=True, edge_prob=0.0)
        inst, layout = psi_to_dspc(pattern, host, 2)
        wrong = tuple(3 - j for j in witness)  # flip every member choice
        with pytest.raises(WitnessInvalid):
            layout.routing(wrong)
        with pytest.raises(WitnessInvalid):
            layout.routing(witness[:3])

    def test_find_homomorphism_against_brute_force(self):
        pattern = complete_bipartite_pattern()
        for seed in range(15):
            rng = random.Random(seed)
            sizes = tuple(rng.randint(1, 2) for _ in range(6))
            host, _ = random_host(rng, pattern, sizes, plant=False, edge_prob=0.6)
            assert find_homomorphism(pattern, host) == brute_homomorphism(pattern, host), seed

    def test_find_homomorphism_against_brute_force_on_planted_hosts(self):
        # the unplanted draws above all lack a homomorphism; these all have one
        pattern = complete_bipartite_pattern()
        for seed in range(15):
            rng = random.Random(seed)
            sizes = tuple(rng.randint(1, 3) for _ in range(6))
            host, _ = random_host(rng, pattern, sizes, plant=True, edge_prob=0.4)
            found = find_homomorphism(pattern, host)
            assert found is not None and found == brute_homomorphism(pattern, host), seed

    def test_interleaved_host_colors_give_members_by_position(self):
        # member j of class i is vertex i + 6 * (j - 1); only the witness's edges exist
        pattern = complete_bipartite_pattern()
        witness = (2, 1, 2, 2, 1, 2)

        def vertex(i, j):
            return i + 6 * (j - 1)

        edges = tuple((vertex(a, witness[a - 1]), vertex(b, witness[b - 1]))
                      for a, b in pattern.edges)
        host = ColoredGraph(UndirectedGraph(12, edges), (1, 2, 3, 4, 5, 6) * 2, 6)
        assert find_homomorphism(pattern, host) == witness
        inst, layout = psi_to_dspc(pattern, host, 2)
        assert verify_solution(inst, layout.routing(witness)).feasible
        # the class-by-class numbering of the same host builds the same instance
        relabel = {vertex(i, j): 2 * (i - 1) + j for i in range(1, 7) for j in (1, 2)}
        grouped = ColoredGraph(
            UndirectedGraph(12, tuple((relabel[u], relabel[v]) for u, v in edges)),
            tuple(sorted((1, 2, 3, 4, 5, 6) * 2)), 6)
        same, _ = psi_to_dspc(pattern, grouped, 2)
        assert set(same.dag.edges) == set(inst.dag.edges)
        assert same.demands == inst.demands

    def test_find_homomorphism_past_the_recursion_limit(self):
        # the cyclic cubic pattern a_i -> b_i, b_{i+1}, b_{i+2} with one host
        # member per class: the search goes one level deeper per class
        half = (sys.getrecursionlimit() + 201) // 2
        edges = tuple(
            (a, half + (a - 1 + step) % half + 1) for a in range(1, half + 1) for step in range(3)
        )
        pattern = PatternGraph(2 * half, edges)
        colors = tuple(range(1, 2 * half + 1))
        host = ColoredGraph(UndirectedGraph(2 * half, edges), colors, 2 * half)
        assert find_homomorphism(pattern, host) == (1,) * (2 * half)
        missing = ColoredGraph(UndirectedGraph(2 * half, edges[1:]), colors, 2 * half)
        assert find_homomorphism(pattern, missing) is None


class TestPlantedRouting:
    def test_routing_that_does_not_verify_raises(self):
        # 1-2-3 is longer than the edge 1-3; the check raises rather than
        # asserts, so it holds under python -O too
        inst = Instance(Dag(3, ((1, 2, 1), (2, 3, 1), (1, 3, 1))), ((1, 3),), 1)
        with pytest.raises(InvariantViolation, match="planted witness routing must verify"):
            _verified(inst, [(1, 2, 3)])
        assert _verified(inst, [(1, 3)]).paths[0].vertices == (1, 3)
