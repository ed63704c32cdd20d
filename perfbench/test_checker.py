"""Tests for the benchmark's independent routing checker.

Run with ``python3 -m pytest perfbench/test_checker.py``. Each corrupted
routing must be rejected, so a checker that accepts everything fails here.
"""

from __future__ import annotations

import checker

# A 3x3 unit grid, edges right and down, vertices numbered row by row:
#   1 2 3
#   4 5 6
#   7 8 9
# plus a weight-5 shortcut 1 -> 9 that is never shortest.
GRID = """c 3x3 grid
p dsp 9 13 2 1 {mode}
a 1 2 1
a 2 3 1
a 4 5 1
a 5 6 1
a 7 8 1
a 8 9 1
a 1 4 1
a 4 7 1
a 2 5 1
a 5 8 1
a 3 6 1
a 6 9 1
a 1 9 5
d 1 9
d 4 8
"""

VALID = "s 1\np 1 4 1 2 3 6 9\np 2 2 4 5 8\n"


def problems(solution: str, mode: str = "vertex", congestion: int | None = None) -> list[str]:
    text = GRID.format(mode=mode)
    if congestion is not None:
        text = text.replace("p dsp 9 13 2 1", f"p dsp 9 13 2 {congestion}")
    return checker.routing_problems(checker.read_instance(text), checker.read_solution(solution))


def test_valid_routing_passes():
    assert problems(VALID) == []
    assert problems(VALID, mode="edge") == []


def test_longer_detour_is_rejected():
    # The shortcut edge exists but costs 5 against a shortest distance of 4.
    found = problems("s 1\np 1 5 1 9\np 2 2 4 5 8\n")
    assert any("shortest" in p for p in found)


def test_missing_edge_is_rejected():
    # 1 -> 5 is not an edge of the grid.
    found = problems("s 1\np 1 4 1 5 6 9\np 2 2 4 5 8\n")
    assert any("non-edge" in p for p in found)


def test_wrong_endpoints_are_rejected():
    found = problems("s 1\np 1 3 1 2 3 6\np 2 2 4 5 8\n")
    assert any("demand is 1->9" in p for p in found)


def test_wrong_claimed_length_is_rejected():
    found = problems("s 1\np 1 3 1 2 3 6 9\np 2 2 4 5 8\n")
    assert any("claims length" in p for p in found)


def test_overloaded_vertex_is_rejected():
    # Both paths pass vertices 4 and 5 at budget 1.
    overloaded = "s 1\np 1 4 1 4 5 6 9\np 2 2 4 5 8\n"
    found = problems(overloaded)
    assert any(p.startswith("vertex 5 carries 2") for p in found)
    assert problems(overloaded, congestion=2) == []


def test_overloaded_edge_is_rejected():
    found = problems("s 1\np 1 4 1 4 5 6 9\np 2 2 4 5 8\n", mode="edge")
    assert found == ["edge (4, 5) carries 2 paths, budget 1"]
    # Sharing vertex 4 but no edge is fine in edge mode only.
    shares_vertex = "s 1\np 1 4 1 4 5 6 9\np 2 2 4 7 8\n"
    assert problems(shares_vertex, mode="edge") == []
    assert problems(shares_vertex) == ["vertex 4 carries 2 paths, budget 1"]


def test_path_count_must_match_demands():
    found = problems("s 1\np 1 4 1 2 3 6 9\n")
    assert found and "1 paths for 2 demands" in found[0]


def test_infeasibility_claim_reads_as_none():
    assert checker.read_solution("s 0\n") is None


def test_distances_are_shortest_over_all_routes():
    dist = checker.distances_from(checker.read_instance(GRID.format(mode="vertex")), 1)
    assert dist == {1: 0, 2: 1, 3: 2, 4: 1, 5: 2, 6: 3, 7: 2, 8: 3, 9: 4}


def test_benchmark_flags_bad_solver_output():
    import run

    problem = checker.read_instance(GRID.format(mode="vertex"))
    assert run._output_fault(problem, 0, VALID) is None
    assert run._output_fault(problem, 0, "s 1\np 1 5 1 9\np 2 2 4 5 8\n").startswith("routing")
    assert run._output_fault(problem, 0, "s 0\n") is not None
    assert run._output_fault(problem, 1, VALID) is not None
    assert run._output_fault(problem, 1, "s 0\n") is None


def test_chain_verdict_matches_whole_instance_oracle(monkeypatch):
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import random

    import workloads
    from dspc import brute_force_oracle

    monkeypatch.setattr(workloads, "BLOCKS", 4)
    monkeypatch.setattr(workloads, "LONG_DAG_CASES", 40)
    cases = workloads._long_dag(random.Random(3))
    verdicts = [workloads._chain_verdict(case) for case in cases]
    assert verdicts == [brute_force_oracle(case.instance) is not None for case in cases]
    assert True in verdicts and False in verdicts
