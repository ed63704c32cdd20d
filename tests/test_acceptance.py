"""Acceptance suite: the seven contract criteria, one pass/fail line each.

Every criterion is exact (100% agreement, exact counts and distances); the
first and sixth also carry wall-clock budgets. Lines print to the real
stdout so they are visible regardless of capture settings.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter

import dspc.kernel
from dspc import (
    HostGraph,
    brute_force_oracle,
    complete_bipartite_pattern,
    concentrate_congestion,
    congestion_profile,
    find_hot_vertices,
    mcc_to_planar_edsp,
    psi_to_dspc,
    solve_disjoint_shortest,
    solve_edsp,
    solve_kdspc,
    solve_with_congestion,
    verify_solution,
)
from dspc.cli import main as cli_main
from dspc.exact import count_shortest_paths
from dspc.hardness import random_colored_graph
from dspc.randgen import random_instance

from helpers import build_miss_gadget


def report(number: int, ok: bool, label: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    agree = 0
    total = 500
    for seed in range(total):
        rng = random.Random(seed)
        inst = random_instance(rng, n=rng.randint(1, 8), k=rng.randint(1, 3),
                               congestion=1, max_weight=2)
        got = solve_disjoint_shortest(inst.dag, inst.demands)
        want = brute_force_oracle(inst)
        if (got is None) == (want is None):
            agree += 1
        if got is not None:
            assert verify_solution(inst, got).feasible
    elapsed = time.monotonic() - started
    report(1, agree == total and elapsed < 60,
           f"exact solver vs oracle {agree}/{total} in {elapsed:.1f}s (< 60s)")


def test_criterion_2_congestion_transform():
    agree = 0
    projections_verified = True
    total = 300
    for seed in range(total):
        rng = random.Random(seed)
        inst = random_instance(rng, n=rng.randint(1, 6), k=rng.randint(1, 3),
                               congestion=rng.randint(1, 2), max_weight=2)
        got = solve_with_congestion(inst)
        want = brute_force_oracle(inst)
        if (got is None) == (want is None):
            agree += 1
        if got is not None and not verify_solution(inst, got).feasible:
            projections_verified = False
    report(2, agree == total and projections_verified,
           f"congestion solver vs oracle {agree}/{total}, routings verified")


def test_criterion_3_kernel_consistency():
    agree = 0
    total = 200
    for seed in range(total):
        rng = random.Random(seed)
        k = rng.choice((4, 5))
        inst = random_instance(rng, n=rng.randint(3, 8), k=k, congestion=k - 1,
                               max_weight=2)
        if (solve_kdspc(inst) is None) == (solve_with_congestion(inst) is None):
            agree += 1
    report(3, agree == total, f"demand-core solver vs congestion solver {agree}/{total}")


def test_criterion_4_swap_invariance(monkeypatch):
    swap_calls = 0
    real_swap = dspc.kernel.swap_subpaths

    def counting_swap(sol, ctx):
        nonlocal swap_calls
        swap_calls += 1
        return real_swap(sol, ctx)

    monkeypatch.setattr(dspc.kernel, "swap_subpaths", counting_swap)

    total = 100
    ok = True
    for seed in range(total):
        rng = random.Random(seed)
        inst, sol, hot = build_miss_gadget(rng, hot_columns=rng.choice((4, 5, 6)))
        before_profile = congestion_profile(inst, sol).counts
        before_lengths = Counter(p.length for p in sol.paths)
        assert find_hot_vertices(inst, sol) == hot
        swap_calls = 0
        out, carrier = concentrate_congestion(inst, sol)
        ok &= swap_calls <= len(hot) - 2
        ok &= set(hot) <= set(out.paths[carrier].vertices)
        ok &= congestion_profile(inst, out).counts == before_profile
        ok &= Counter(p.length for p in out.paths) == before_lengths
        ok &= verify_solution(inst, out).feasible
    report(4, ok, f"swap invariance and concentration on {total} constructed solutions")


def test_criterion_5_psi_structure():
    pattern = complete_bipartite_pattern()
    host = HostGraph((1,) * 6, tuple(((a, 1), (b, 1)) for a, b in pattern.edges))
    inst, layout = psi_to_dspc(pattern, host, 2)
    ok = inst.k == 6 * (2 * (2 - 1) + 1) + 9 == 27
    for l in range(1, 10):
        ok &= inst.dag.dist_from(layout.edge_source[l])[layout.edge_target[l]] == 5
    for i in range(1, 7):
        upper = inst.demands[layout.demand_index[("upper", i, 0)]]
        lower = inst.demands[layout.demand_index[("lower", i, 0)]]
        ok &= count_shortest_paths(inst.dag, *upper) == 1
        ok &= count_shortest_paths(inst.dag, *lower) == 1
    report(5, ok, "block family: 27 demands, link distance exactly 5, unique spines")


def test_criterion_6_mcc_generator():
    started = time.monotonic()
    total = 100
    ok = True
    agree = 0
    for seed in range(total):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        cg = random_colored_graph(rng, n, 2)
        inst, layout = mcc_to_planar_edsp(cg, 2)
        merged = len(layout.merged_cells)
        ok &= inst.dag.vertex_count == n * n + (2 * n * n - merged) + 4 * n + 8
        ok &= {inst.dag.dist_from(s)[t] for s, t in inst.demands} == {2 * n + 3}
        routed = solve_edsp(inst)

        # independent witness search: try every one-per-color combination
        clique = None
        ones = [v for v in range(1, n + 1) if cg.color_of(v) == 1]
        twos = [v for v in range(1, n + 1) if cg.color_of(v) == 2]
        for u in ones:
            for v in twos:
                if cg.graph.has_edge(u, v):
                    clique = (u, v)
                    break
            if clique:
                break
        if (routed is None) == (clique is None):
            agree += 1
    elapsed = time.monotonic() - started
    report(6, ok and agree == total and elapsed < 120,
           f"grid family: exact counts, distance 2n+3, feasibility vs clique "
           f"{agree}/{total} in {elapsed:.1f}s (< 120s)")


def test_criterion_7_determinism(tmp_path):
    ok = True
    for family, extra in (
        ("mcc", ("--size", "5", "--colors", "2")),
        ("psi", ("--class-size", "1", "--congestion", "2")),
        ("random", ("--size", "8", "--demands", "3", "--congestion", "2")),
    ):
        a, b = tmp_path / "a.dsp", tmp_path / "b.dsp"
        cli_main(["gen", family, "--seed", "7", *extra, "-o", str(a)])
        cli_main(["gen", family, "--seed", "7", *extra, "-o", str(b)])
        ok &= a.read_bytes() == b.read_bytes()
    inst = tmp_path / "inst.dsp"
    cli_main(["gen", "random", "--seed", "13", "--size", "8", "--demands", "3",
              "--congestion", "2", "-o", str(inst)])
    s1, s2 = tmp_path / "s1.sol", tmp_path / "s2.sol"
    cli_main(["solve", "-i", str(inst), "-o", str(s1)])
    cli_main(["solve", "-i", str(inst), "-o", str(s2)])
    ok &= s1.read_bytes() == s2.read_bytes()
    report(7, ok, "same seeds give byte-identical instance and solution files")
