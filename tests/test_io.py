"""Instance and solution file round-trips and error reporting."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspc import (
    CycleDetected,
    Instance,
    LimitExceeded,
    ParseError,
    Path,
    Solution,
    complete_bipartite_pattern,
    edge_split_transform,
    emit_instance,
    emit_solution,
    expand_congestion,
    isolate_terminals,
    mcc_to_planar_edsp,
    parse_instance,
    parse_solution,
    psi_to_dspc,
    solve_with_congestion,
)
from dspc.formats import MAX_VERTICES
from dspc.hardness import plant_colorful_clique, random_colored_graph, random_host
from dspc.randgen import random_instance

from helpers import chain


@st.composite
def instances(draw):
    from dspc import Dag

    n = draw(st.integers(1, 7))
    edges = tuple(
        (u, v, draw(st.integers(1, 4)))
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if draw(st.booleans())
    )
    k = draw(st.integers(1, 3))
    demands = tuple(
        (draw(st.integers(1, n)), draw(st.integers(1, n))) for _ in range(k)
    )
    return Instance(
        Dag(n, edges),
        demands,
        draw(st.integers(1, 3)),
        draw(st.sampled_from(("vertex", "edge"))),
    )


def round_trip_cases():
    """Random instances, both gadget families planted and not, and transform outputs."""
    for seed in range(40):
        rng = random.Random(seed)
        yield random_instance(rng, n=rng.randint(1, 8), k=rng.randint(1, 3),
                              congestion=rng.randint(1, 3),
                              mode=rng.choice(("vertex", "edge")))
    pattern = complete_bipartite_pattern()
    for seed in range(3):
        rng = random.Random(seed)
        cg = random_colored_graph(rng, 4, 2)
        yield mcc_to_planar_edsp(cg, 2)[0]
        yield mcc_to_planar_edsp(plant_colorful_clique(rng, cg)[0], 2)[0]
        for plant in (False, True):
            host, _ = random_host(rng, pattern, (1, 2) * 3, plant=plant)
            yield psi_to_dspc(pattern, host, 2)[0]
    yield from reduction_targets()


def reduction_targets():
    """The isolate, copy, split and composed split -> isolate -> copy targets of random draws."""
    for seed in range(10):
        rng = random.Random(seed)
        inst = random_instance(rng, n=rng.randint(2, 6), k=rng.randint(1, 3),
                               congestion=rng.randint(1, 2))
        isolated = isolate_terminals(inst)[0]
        split = edge_split_transform(Instance(inst.dag, inst.demands, inst.congestion, "edge"))[0]
        yield isolated
        yield expand_congestion(isolated)[0]
        yield split
        yield expand_congestion(isolate_terminals(split)[0])[0]


class TestInstanceFiles:
    @settings(max_examples=80, deadline=None)
    @given(instances())
    def test_parse_inverts_emit(self, inst):
        assert parse_instance(emit_instance(inst)) == inst

    def test_minimal_single_vertex_instance(self):
        inst = parse_instance("p dsp 1 0 1 1 vertex\nd 1 1\n")
        assert inst.dag.vertex_count == 1
        assert inst.demands == ((1, 1),)

    def test_round_trip_identity(self):
        for inst in round_trip_cases():
            text = emit_instance(inst)
            again = parse_instance(text)
            assert again == inst
            assert hash(again) == hash(inst)
            assert emit_instance(again) == text

    def test_comments_survive_emission_byte_stably(self):
        inst = Instance(chain(3), ((1, 3),), 1)
        text = emit_instance(inst, comments=("family=demo seed=1", ""))
        assert text.startswith("c family=demo seed=1\nc\np dsp")
        assert emit_instance(parse_instance(text)) == emit_instance(inst)

    def test_reduction_outputs_are_ordinary_files(self):
        for target in reduction_targets():
            text = emit_instance(target)
            assert not text.startswith("c")  # comments lead, so no "c transformed" line
            assert all(w >= 1 for _, _, w in target.dag.edges)
            assert parse_instance(text) == target

    def test_arc_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_instance("p dsp 2 2 1 1 vertex\na 1 2 1\nd 1 2\n")

    def test_demand_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_instance("p dsp 2 1 2 1 vertex\na 1 2 1\nd 1 2\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p dsp 2 1 1 1 vertex\na 1 two 1\nd 1 2\n")
        assert err.value.line == 2

    def test_unknown_tag_rejected(self):
        # the message names the tag wherever the line stands
        for text in ("p dsp 1 0 1 1 vertex\nq zzz\nd 1 1\n", "q zzz\np dsp 1 0 1 1 vertex\nd 1 1\n"):
            with pytest.raises(ParseError, match="unknown line tag 'q'"):
                parse_instance(text)

    def test_missing_header_rejected(self):
        for text in ("a 1 2 1\n", "d 1 2\n"):
            with pytest.raises(ParseError, match="arc or demand line before the problem line"):
                parse_instance(text)

    def test_bad_mode_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("p dsp 1 0 1 1 mixed\nd 1 1\n")

    def test_vertex_count_over_bound_rejected(self):
        at_bound = parse_instance(f"p dsp {MAX_VERTICES} 0 1 1 vertex\nd 1 2\n")
        assert at_bound.dag.vertex_count == MAX_VERTICES
        with pytest.raises(LimitExceeded, match=f"{MAX_VERTICES + 1} vertices"):
            parse_instance(f"p dsp {MAX_VERTICES + 1} 0 1 1 vertex\nd 1 2\n")

    def test_cyclic_file_rejected(self):
        text = "p dsp 2 2 1 1 vertex\na 1 2 1\na 2 1 1\nd 1 2\n"
        with pytest.raises(CycleDetected):
            parse_instance(text)


class TestSolutionFiles:
    def test_infeasible_file(self):
        assert emit_solution(None) == "s 0\n"
        assert parse_solution("s 0\n") is None

    def test_round_trip(self):
        dag = chain(3)
        sol = Solution((Path.trace(dag, (1, 2, 3)),))
        text = emit_solution(sol)
        assert text == "s 1\np 1 2 1 2 3\n"
        assert parse_solution(text) == sol

    def test_solver_output_parses_back(self):
        for seed in range(20):
            rng = random.Random(seed)
            inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 3),
                                   congestion=rng.randint(1, 2))
            sol = solve_with_congestion(inst)
            assert parse_solution(emit_solution(sol)) == sol

    def test_out_of_order_paths_rejected(self):
        with pytest.raises(ParseError):
            parse_solution("s 1\np 2 2 1 2 3\n")

    def test_path_without_status_rejected(self):
        with pytest.raises(ParseError):
            parse_solution("p 1 2 1 2 3\n")

    def test_bad_status_rejected(self):
        with pytest.raises(ParseError):
            parse_solution("s maybe\n")
