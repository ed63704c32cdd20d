"""Graph primitives: ordering, distances, verification, congestion accounting."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspc import (
    INFINITY,
    CycleDetected,
    Dag,
    Instance,
    InvariantViolation,
    Path,
    ShapeMismatch,
    Solution,
    congestion_profile,
    reachable,
    topo_order,
    verify_solution,
)
from dspc.randgen import random_dag, random_instance

from helpers import (
    all_topological_orders,
    chain,
    dfs_reachable,
    diamond,
    enumerate_all_paths,
    exhaustive_distance,
    is_shortest,
    kahn_order,
    relabel,
)


@st.composite
def dags(draw, max_n=8, max_weight=3):
    n = draw(st.integers(1, max_n))
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if draw(st.booleans()):
                edges.append((u, v, draw(st.integers(1, max_weight))))
    return Dag(n, tuple(edges))


@st.composite
def relabelled_dags(draw, max_n=8):
    """A drawn DAG under a random renaming, so edges may go from higher ids to lower."""
    dag = draw(dags(max_n=max_n))
    return relabel(dag, draw(st.permutations(range(1, dag.vertex_count + 1))))


@st.composite
def cyclic_graphs(draw, max_n=8):
    """A drawn DAG plus the reverse of one of its edges, under a random renaming."""
    dag = draw(dags(max_n=max_n).filter(lambda d: d.edges))
    u, v, w = draw(st.sampled_from(dag.edges))
    cyclic = Dag(dag.vertex_count, dag.edges + ((v, u, w),))
    return relabel(cyclic, draw(st.permutations(range(1, dag.vertex_count + 1))))


class TestDagInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(InvariantViolation):
            Dag(2, ((1, 1, 1),))

    def test_rejects_parallel_edges(self):
        with pytest.raises(InvariantViolation):
            Dag(2, ((1, 2, 1), (1, 2, 2)))

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(InvariantViolation):
            Dag(2, ((1, 3, 1),))

    def test_rejects_zero_weight_without_flag(self):
        with pytest.raises(InvariantViolation):
            Dag(2, ((1, 2, 0),))

    def test_allows_zero_weight_when_transformed(self):
        dag = Dag(2, ((1, 2, 0),), transformed=True)
        assert dag.dist_from(1)[2] == 0

    def test_cycle_detected_on_order(self):
        dag = Dag(2, ((1, 2, 1), (2, 1, 1)))
        with pytest.raises(CycleDetected):
            topo_order(dag)


class TestTopoOrder:
    def test_single_vertex(self):
        assert topo_order(Dag(1, ())) == (1,)

    def test_chain_is_forced(self):
        assert topo_order(chain(3)) == (1, 2, 3)

    def test_diamond_breaks_ties_by_smallest_id(self):
        # Derived: of all valid orders, ours must be the lexicographically least.
        orders = all_topological_orders(diamond())
        assert topo_order(diamond()) == min(orders) == (1, 2, 3, 4)

    @settings(max_examples=60, deadline=None)
    @given(dags(max_n=6))
    def test_tails_precede_heads(self, dag):
        rank = {v: i for i, v in enumerate(topo_order(dag))}
        for u, v, _ in dag.edges:
            assert rank[u] < rank[v]

    @settings(max_examples=30, deadline=None)
    @given(dags(max_n=6))
    def test_order_is_valid_and_lex_smallest(self, dag):
        assert topo_order(dag) == min(all_topological_orders(dag))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(dags(max_n=10), relabelled_dags(max_n=10)))
    def test_order_matches_reference_kahn_order(self, dag):
        assert dag.order == kahn_order(dag.vertex_count, dag.edges)

    @settings(max_examples=60, deadline=None)
    @given(cyclic_graphs(max_n=8))
    def test_cycles_still_raise(self, dag):
        assert kahn_order(dag.vertex_count, dag.edges) is None
        with pytest.raises(CycleDetected):
            dag.order


class TestDistances:
    def test_chain(self):
        dag = chain(3)
        assert dag.dist_from(1)[3] == 2
        assert dag.dist_from(3)[1] == INFINITY

    def test_diamond_two_hops(self):
        assert diamond().dist_from(1)[4] == 2

    def test_matches_path_enumeration_on_random_dags(self):
        # the all-pairs table no route reads, kept for the benchmark's traced runs
        for seed in range(40):
            rng = random.Random(seed)
            dag = random_dag(rng, n=rng.randint(1, 8), max_weight=2)
            dm = dag.distances
            for s in range(1, dag.vertex_count + 1):
                for t in range(1, dag.vertex_count + 1):
                    assert dm.dist(s, t) == exhaustive_distance(dag, s, t)

    def test_per_vertex_sweeps_match_path_enumeration(self):
        for seed in range(40):
            rng = random.Random(seed)
            dag = random_dag(rng, n=rng.randint(1, 8), max_weight=2)
            n = dag.vertex_count
            for v in range(1, n + 1):
                from_v, to_v = dag.dist_from(v), dag.dist_to(v)
                assert len(from_v) == len(to_v) == n + 1
                for u in range(1, n + 1):
                    assert from_v[u] == exhaustive_distance(dag, v, u)
                    assert to_v[u] == exhaustive_distance(dag, u, v)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(dags(), relabelled_dags()), st.data())
    def test_windowed_sweeps_match_full_sweeps_inside_the_window(self, dag, data):
        order = dag.order
        i, j = (data.draw(st.integers(0, len(order) - 1)) for _ in range(2))
        s, t = order[i], order[j]
        from_s, to_t = dag.dist_from(s, t), dag.dist_to(t, s)
        if j < i:
            # an empty window: t lies before s, so neither reaches the other
            assert from_s[t] == to_t[s] == INFINITY
            return
        full_from, full_to = dag.dist_from(s), dag.dist_to(t)
        for v in order[i:j + 1]:
            assert from_s[v] == full_from[v]
            assert to_t[v] == full_to[v]

    def test_self_distance_zero_and_edge_triangle_inequality(self):
        for seed in range(20):
            dag = random_dag(random.Random(seed), n=7)
            for u in range(1, dag.vertex_count + 1):
                dist = dag.dist_from(u)
                assert dist[u] == 0
                for v, w, weight in dag.edges:
                    assert dist[w] <= dist[v] + weight


class TestIsShortest:
    def test_chain_path(self):
        dag = chain(3)
        assert is_shortest(dag, Path.trace(dag, (1, 2, 3)))

    def test_detour_loses_to_direct_edge(self):
        dag = Dag(4, ((1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1), (1, 4, 1)))
        assert not is_shortest(dag, Path.trace(dag, (1, 2, 4)))

    def test_agrees_with_enumeration_on_sampled_paths(self):
        for seed in range(25):
            rng = random.Random(seed)
            dag = random_dag(rng, n=7)
            for s in range(1, 8):
                for t in range(s, 8):
                    for vertices, weight in enumerate_all_paths(dag, s, t):
                        expected = weight == exhaustive_distance(dag, s, t)
                        assert is_shortest(dag, Path(vertices, weight)) == expected

    def test_prefix_of_shortest_is_shortest(self):
        for seed in range(25):
            rng = random.Random(seed)
            dag = random_dag(rng, n=8)
            for s in range(1, 9):
                dist = dag.dist_from(s)
                for t in range(s, 9):
                    for vertices, weight in enumerate_all_paths(dag, s, t):
                        if weight != dist[t]:
                            continue
                        for cut in range(1, len(vertices) + 1):
                            prefix = Path.trace(dag, vertices[:cut])
                            assert is_shortest(dag, prefix)


class TestPath:
    def test_trace_validates_edges(self):
        with pytest.raises(InvariantViolation):
            Path.trace(chain(3), (1, 3))

    def test_single_vertex_path_has_length_zero(self):
        assert Path.trace(chain(3), (2,)).length == 0


class TestVerifySolution:
    def test_diamond_two_demands_feasible_at_two(self):
        dag = diamond()
        inst = Instance(dag, ((1, 4), (1, 4)), 2)
        sol = Solution((Path.trace(dag, (1, 2, 4)), Path.trace(dag, (1, 3, 4))))
        report = verify_solution(inst, sol)
        assert report.feasible and not report.violations

    def test_shared_endpoint_busts_budget_one(self):
        dag = diamond()
        inst = Instance(dag, ((1, 4), (1, 4)), 1)
        sol = Solution((Path.trace(dag, (1, 2, 4)), Path.trace(dag, (1, 3, 4))))
        report = verify_solution(inst, sol)
        assert not report.feasible
        assert any(v.kind == "congestion" and v.subject == 1 for v in report.violations)

    def test_non_shortest_detour_flagged(self):
        dag = Dag(4, ((1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1), (1, 4, 1)))
        inst = Instance(dag, ((1, 4),), 1)
        sol = Solution((Path.trace(dag, (1, 2, 4)),))
        report = verify_solution(inst, sol)
        assert not report.feasible
        assert any(v.kind == "not_shortest" for v in report.violations)

    def test_wrong_endpoints_flagged(self):
        dag = chain(3)
        inst = Instance(dag, ((1, 3),), 1)
        report = verify_solution(inst, Solution((Path.trace(dag, (1, 2)),)))
        assert any(v.kind == "endpoints" for v in report.violations)

    def test_broken_path_flagged_as_structure(self):
        dag = chain(3)
        inst = Instance(dag, ((1, 3),), 1)
        report = verify_solution(inst, Solution((Path((1, 3), 2),)))
        assert any(v.kind == "structure" for v in report.violations)

    def test_shape_mismatch_raises(self):
        dag = chain(3)
        inst = Instance(dag, ((1, 3),), 1)
        with pytest.raises(ShapeMismatch):
            verify_solution(inst, Solution(()))

    def test_monotone_in_congestion(self):
        from dspc.exact import brute_force_oracle

        for seed in range(40):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 3),
                                   congestion=rng.randint(1, 2))
            sol = brute_force_oracle(inst)
            if sol is None:
                continue
            relaxed = Instance(inst.dag, inst.demands, inst.congestion + 1, inst.mode)
            assert verify_solution(relaxed, sol).feasible

    def test_zero_length_demand_is_legal(self):
        dag = chain(3)
        inst = Instance(dag, ((2, 2),), 1)
        sol = Solution((Path.trace(dag, (2,)),))
        assert verify_solution(inst, sol).feasible


class TestCongestionProfile:
    def test_single_path(self):
        dag = chain(3)
        inst = Instance(dag, ((1, 3),), 1)
        profile = congestion_profile(inst, Solution((Path.trace(dag, (1, 2, 3)),)))
        assert profile.counts == {1: 1, 2: 1, 3: 1}

    def test_two_paths_sharing_endpoints(self):
        dag = diamond()
        inst = Instance(dag, ((1, 4), (1, 4)), 2)
        sol = Solution((Path.trace(dag, (1, 2, 4)), Path.trace(dag, (1, 3, 4))))
        profile = congestion_profile(inst, sol)
        assert profile.counts == {1: 2, 2: 1, 3: 1, 4: 2}
        assert profile.of(1) == 2 and profile.of(99) == 0

    def test_edge_mode_counts_edges(self):
        dag = chain(3)
        inst = Instance(dag, ((1, 3), (1, 3)), 2, "edge")
        path = Path.trace(dag, (1, 2, 3))
        profile = congestion_profile(inst, Solution((path, path)))
        assert profile.counts == {(1, 2): 2, (2, 3): 2}

    def test_counts_equal_incidence_column_sums(self):
        from dspc.exact import brute_force_oracle

        for seed in range(30):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 3),
                                   congestion=2)
            sol = brute_force_oracle(inst)
            if sol is None:
                continue
            profile = congestion_profile(inst, sol)
            recount: dict[int, int] = {}
            for path in sol.paths:
                for v in path.vertices:
                    recount[v] = recount.get(v, 0) + 1
            assert profile.counts == recount
            assert sum(profile.counts.values()) == sum(len(p.vertices) for p in sol.paths)


class TestReachable:
    def test_chain_directions(self):
        dag = chain(3)
        assert reachable(dag, 1, 3)
        assert not reachable(dag, 3, 1)

    def test_agrees_with_dfs(self):
        for seed in range(30):
            dag = random_dag(random.Random(seed), n=8)
            for s in range(1, 9):
                for t in range(1, 9):
                    assert reachable(dag, s, t) == dfs_reachable(dag, s, t)


class TestConcurrentSharing:
    def test_threads_share_one_graph_safely(self):
        # derived state (order, positions, adjacency, distances) may race on first
        # access; every thread must still observe identical values
        import threading

        dag = random_dag(random.Random(99), n=8)
        n = dag.vertex_count
        results = []

        def worker():
            results.append((topo_order(dag), dag.distances.dist(1, n), dag.dist_from(1)[n]))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1


class TestInstance:
    def test_slack_clamps_at_zero(self):
        dag = chain(3)
        assert Instance(dag, ((1, 3),), 5).slack == 0
        assert Instance(dag, ((1, 2), (1, 3), (2, 3)), 1).slack == 2

    def test_rejects_bad_demand(self):
        with pytest.raises(InvariantViolation):
            Instance(chain(3), ((1, 9),), 1)

    def test_rejects_bad_congestion(self):
        with pytest.raises(InvariantViolation):
            Instance(chain(3), ((1, 3),), 0)

    def test_rejects_bad_mode(self):
        with pytest.raises(InvariantViolation):
            Instance(chain(3), ((1, 3),), 1, "both")
