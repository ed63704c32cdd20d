"""Command-line behavior: exit codes, files, determinism."""

from __future__ import annotations

import pytest

from dspc.cli import main
from dspc import Dag, parse_instance, parse_solution, verify_solution


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def feasible_file(tmp_path):
    path = tmp_path / "inst.dsp"
    path.write_text("p dsp 3 2 1 1 vertex\na 1 2 1\na 2 3 1\nd 1 3\n")
    return path


@pytest.fixture
def infeasible_file(tmp_path):
    path = tmp_path / "bad.dsp"
    path.write_text("p dsp 3 2 1 1 vertex\na 1 2 1\na 2 3 1\nd 3 1\n")
    return path


class TestSolve:
    def test_feasible_exit_zero_and_verify_accepts(self, feasible_file, tmp_path):
        out = tmp_path / "out.sol"
        assert run("solve", "-i", str(feasible_file), "-o", str(out)) == 0
        assert run("verify", "-i", str(feasible_file), "-s", str(out)) == 0

    def test_infeasible_exit_one(self, infeasible_file, tmp_path):
        out = tmp_path / "out.sol"
        assert run("solve", "-i", str(infeasible_file), "-o", str(out)) == 1
        assert out.read_text() == "s 0\n"

    def test_kernel_algo(self, feasible_file, tmp_path):
        out = tmp_path / "out.sol"
        assert run("solve", "--algo", "kernel", "-i", str(feasible_file),
                   "-o", str(out)) == 0

    def test_mode_mismatch_is_usage_error(self, feasible_file):
        assert run("solve", "-i", str(feasible_file), "--mode", "edge") == 2

    def test_kernel_rejects_edge_mode(self, tmp_path):
        path = tmp_path / "edge.dsp"
        path.write_text("p dsp 3 2 1 1 edge\na 1 2 1\na 2 3 1\nd 1 3\n")
        assert run("solve", "--algo", "kernel", "-i", str(path)) == 2

    def test_edge_mode_solves_and_verifies(self, tmp_path):
        path = tmp_path / "edge.dsp"
        path.write_text("p dsp 3 2 1 1 edge\na 1 2 1\na 2 3 1\nd 1 3\n")
        out = tmp_path / "out.sol"
        assert run("solve", "-i", str(path), "-o", str(out)) == 0
        inst = parse_instance(path.read_text())
        sol = parse_solution(out.read_text())
        assert verify_solution(inst, sol).feasible

    def test_missing_file_is_input_error(self, tmp_path):
        assert run("solve", "-i", str(tmp_path / "nope.dsp")) == 2

    def test_malformed_file_is_input_error(self, tmp_path):
        path = tmp_path / "junk.dsp"
        path.write_text("hello\n")
        assert run("solve", "-i", str(path)) == 2

    def test_solution_files_are_deterministic(self, feasible_file, tmp_path):
        first = tmp_path / "a.sol"
        second = tmp_path / "b.sol"
        run("solve", "-i", str(feasible_file), "-o", str(first))
        run("solve", "-i", str(feasible_file), "-o", str(second))
        assert first.read_bytes() == second.read_bytes()


class TestVerify:
    def test_tampered_solution_refuted(self, feasible_file, tmp_path):
        sol = tmp_path / "bad.sol"
        sol.write_text("s 1\np 1 2 1 3\n")  # not an edge sequence
        assert run("verify", "-i", str(feasible_file), "-s", str(sol)) == 1

    def test_wrong_path_count_is_input_error(self, feasible_file, tmp_path):
        sol = tmp_path / "short.sol"
        sol.write_text("s 1\n")
        assert run("verify", "-i", str(feasible_file), "-s", str(sol)) == 2

    def test_infeasibility_claim_is_refuted(self, feasible_file, tmp_path):
        sol = tmp_path / "claim.sol"
        sol.write_text("s 0\n")
        assert run("verify", "-i", str(feasible_file), "-s", str(sol)) == 1


class TestOracle:
    def test_agrees_with_solve_on_exit_codes(self, tmp_path, capsys):
        for seed in (1, 2, 3, 4, 5):
            inst = tmp_path / f"g{seed}.dsp"
            assert run("gen", "random", "--seed", str(seed), "--size", "6",
                       "--demands", "2", "--congestion", "1",
                       "-o", str(inst)) == 0
            oracle_code = run("oracle", "-i", str(inst))
            capsys.readouterr()
            solve_code = run("solve", "-i", str(inst), "-o",
                             str(tmp_path / f"g{seed}.sol"))
            assert oracle_code == solve_code

    def test_long_chain_stays_below_recursion_limit(self, tmp_path, capsys):
        n = 1600
        arcs = "".join(f"a {v} {v + 1} 1\n" for v in range(1, n))
        path = tmp_path / "chain.dsp"
        path.write_text(f"p dsp {n} {n - 1} 1 1 vertex\n{arcs}d 1 {n}\n")
        assert run("oracle", "-i", str(path)) == 0
        vertices = " ".join(str(v) for v in range(1, n + 1))
        assert capsys.readouterr().out == f"s 1\np 1 {n - 1} {vertices}\n"

    def test_unexpected_failure_is_error_exit(self, feasible_file, monkeypatch, capsys):
        def overflow(inst):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("dspc.cli.brute_force_oracle", overflow)
        assert run("oracle", "-i", str(feasible_file)) == 2
        err = capsys.readouterr().err
        assert err == "error: RecursionError: maximum recursion depth exceeded\n"


class TestNoAllPairsTable:
    """Solve, verify and oracle sweep per demand and never build Dag.distances."""

    @pytest.fixture(autouse=True)
    def forbid_table(self, monkeypatch):
        def refuse(dag):
            raise AssertionError("the all-pairs distance table was built")

        monkeypatch.setattr(Dag, "distances", property(refuse))

    def test_solve_and_verify_both_modes_and_kernel(self, tmp_path):
        # a diamond with a tail: 4 demands at c = 3 make the kernel route
        # solve demand subsets and extend them with canonical shortest paths
        arcs = "a 1 2 1\na 1 3 1\na 2 4 1\na 3 4 1\na 4 5 2\n"
        demands = "d 1 4\nd 1 5\nd 2 5\nd 1 3\n"
        for mode, algos in (("vertex", ("dnc", "kernel")), ("edge", ("dnc",))):
            inst = tmp_path / f"{mode}.dsp"
            inst.write_text(f"p dsp 5 5 4 3 {mode}\n{arcs}{demands}")
            for algo in algos:
                out = tmp_path / f"{mode}-{algo}.sol"
                assert run("solve", "--algo", algo, "-i", str(inst), "-o", str(out)) == 0
                assert run("verify", "-i", str(inst), "-s", str(out)) == 0

    def test_oracle_on_long_chain(self, tmp_path, capsys):
        n = 3000
        arcs = "".join(f"a {v} {v + 1} 1\n" for v in range(1, n))
        path = tmp_path / "chain.dsp"
        path.write_text(f"p dsp {n} {n - 1} 1 1 vertex\n{arcs}d 1 {n}\n")
        assert run("oracle", "-i", str(path)) == 0
        vertices = " ".join(str(v) for v in range(1, n + 1))
        assert capsys.readouterr().out == f"s 1\np 1 {n - 1} {vertices}\n"


class TestGen:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.dsp", tmp_path / "b.dsp"
        for family, extra in (
            ("mcc", ("--size", "5", "--colors", "2")),
            ("psi", ("--class-size", "2", "--congestion", "2")),
            ("random", ("--size", "7", "--demands", "3")),
        ):
            run("gen", family, "--seed", "7", *extra, "-o", str(a))
            run("gen", family, "--seed", "7", *extra, "-o", str(b))
            assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.dsp", tmp_path / "b.dsp"
        run("gen", "random", "--seed", "1", "--size", "8", "-o", str(a))
        run("gen", "random", "--seed", "2", "--size", "8", "-o", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_generated_files_parse_and_solve(self, tmp_path):
        inst = tmp_path / "mcc.dsp"
        run("gen", "mcc", "--seed", "11", "--size", "4", "--colors", "2",
            "-o", str(inst))
        parsed = parse_instance(inst.read_text())
        assert parsed.mode == "edge"
        assert run("solve", "-i", str(inst), "-o", str(tmp_path / "mcc.sol")) in (0, 1)

    def test_provenance_comments_present(self, tmp_path):
        inst = tmp_path / "psi.dsp"
        run("gen", "psi", "--seed", "3", "-o", str(inst))
        text = inst.read_text()
        assert "c family=psi seed=3" in text
        assert "c witness homomorphism" in text


class TestBench:
    def test_suites_run_and_report(self, capsys):
        for suite in ("dnc-oracle", "congestion", "kernel", "mcc"):
            assert run("bench", "--suite", suite, "--count", "5") == 0
            assert "agreement 5/5" in capsys.readouterr().out


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exit_info:
            run("frobnicate")
        assert exit_info.value.code == 2

    def test_log_env_smoke(self, feasible_file, tmp_path, monkeypatch):
        monkeypatch.setenv("DSPC_LOG", "debug")
        assert run("solve", "-i", str(feasible_file),
                   "-o", str(tmp_path / "o.sol")) == 0
