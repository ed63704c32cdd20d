"""Command-line behavior: exit codes, files, determinism."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from itertools import product

import pytest

import dspc
from dspc.cli import COMMANDS, build_parser, command_parser, main
from dspc import (
    Dag,
    Instance,
    complete_bipartite_pattern,
    emit_instance,
    find_colorful_clique,
    find_homomorphism,
    parse_instance,
    parse_solution,
    verify_solution,
)
from dspc import exact, formats
from dspc.hardness import plant_colorful_clique, random_colored_graph, random_host
from dspc.randgen import grid

import gen_golden
from cli_text import COMMAND_LINES, check


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

    def test_zero_weight_is_input_error(self, tmp_path, capsys):
        # a "c transformed" comment is an ordinary comment and allows nothing
        path = tmp_path / "zero.dsp"
        for comment in ("", "c transformed\n"):
            path.write_text(comment + "p dsp 2 1 1 1 vertex\na 1 2 0\nd 1 2\n")
            assert run("solve", "-i", str(path)) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: edge (1,2) has weight 0, minimum is 1\n"

    def test_dead_state_budget_is_error_exit(self, tmp_path, monkeypatch, capsys):
        # the 3x3 grid whose search records a handful of dead states
        path = tmp_path / "grid.dsp"
        path.write_text(emit_instance(Instance(grid(3, 3), ((1, 6), (2, 9)), 1)))
        assert run("solve", "-i", str(path)) == 1
        monkeypatch.setattr(exact, "MAX_DEAD_STATES", 1)
        capsys.readouterr()
        assert run("solve", "-i", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: search gave up after 1 dead states\n"

    def test_move_budget_is_error_exit(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "grid.dsp"
        path.write_text(emit_instance(Instance(grid(3, 3), ((1, 6), (2, 9)), 1)))
        monkeypatch.setattr(exact, "MAX_MOVES_CHECKED", 1)
        assert run("solve", "-i", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: search gave up after 1 moves checked\n"

    def test_vertex_bound_is_error_exit(self, tmp_path, capsys):
        # the header's count is checked before any per-vertex table exists
        path = tmp_path / "huge.dsp"
        path.write_text("p dsp 300000000 0 1 1 vertex\nd 1 2\n")
        assert run("solve", "-i", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: header declares 300000000 vertices, more than the bound of "
            f"{formats.MAX_VERTICES}\n"
        )

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

    def test_wrong_path_count_is_input_error(self, feasible_file, tmp_path, capsys):
        sol = tmp_path / "count.sol"
        for paths, count in (("", 0), ("p 1 2 1 2 3\np 2 2 1 2 3\n", 2)):
            sol.write_text(f"s 1\n{paths}")
            assert run("verify", "-i", str(feasible_file), "-s", str(sol)) == 2
            assert capsys.readouterr().err == f"error: expected 1 paths, got {count}\n"

    @pytest.mark.parametrize("vertices", ["0 2", "-1 2", "4 2", "1 0", "1 -1", "1 4", "1 2"])
    def test_path_off_the_graph_is_structure_violation(self, tmp_path, capsys, vertices):
        # Vertex 3 has the one edge into 2, so a tail of -1 read as the last
        # index would find (3, 2) and pass for an edge.
        inst, sol = tmp_path / "back.dsp", tmp_path / "bad.sol"
        inst.write_text("p dsp 3 2 1 1 vertex\na 1 3 1\na 3 2 1\nd 1 2\n")
        sol.write_text(f"s 1\np 1 1 {vertices}\n")
        assert run("verify", "-i", str(inst), "-s", str(sol)) == 1
        assert capsys.readouterr().err == (
            "violation: Violation(kind='structure', demand=0, subject=None)\n")

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

    @pytest.mark.parametrize("line", list(gen_golden.GOLDEN))
    def test_output_matches_recorded_digest(self, line):
        gen_golden.check(line)

    def test_random_batch_solves_to_recorded_digest(self):
        gen_golden.check_batch()

    def test_direct_batch_solves_to_recorded_digest(self):
        # recorded before uncontested demands were routed without a search
        gen_golden.check_batch("direct")

    def test_search_batch_solves_to_recorded_digest(self):
        gen_golden.check_batch("search")

    @pytest.mark.parametrize("argv", [("psi", "--class-size", "0"),
                                      ("random", "--max-weight", "0"),
                                      ("mcc", "--colors", "0"),
                                      ("random", "--edge-prob", "-0.5"),
                                      ("mcc", "--edge-prob", "1.5"),
                                      ("psi", "--edge-prob", "-1")])
    def test_bad_generator_input_is_error_exit(self, argv, capsys):
        # checked before anything is drawn, not left to the random module to reject
        assert run("gen", *argv, "--seed", "1") == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")
        assert "ValueError" not in lines[0] and "InvariantViolation" not in lines[0]

    def test_provenance_comments_present(self, tmp_path):
        inst = tmp_path / "psi.dsp"
        run("gen", "psi", "--seed", "3", "-o", str(inst))
        text = inst.read_text()
        assert "c family=psi seed=3" in text
        assert "c witness homomorphism" in text


class TestGadgetFamilies:
    """``dspc solve`` decides the paper's gadget families, which carry 8 to 27 demands."""

    @staticmethod
    def _solve(tmp_path, family, seed, *params):
        """Generate, solve and, when feasible, verify one file; the solve's exit code."""
        inst, out = tmp_path / f"{family}.dsp", tmp_path / f"{family}.sol"
        assert run("gen", family, "--seed", str(seed), "--edge-prob", "0.5", *params,
                   "-o", str(inst)) == 0
        code = run("solve", "-i", str(inst), "-o", str(out))
        if code == 0:
            assert run("verify", "-i", str(inst), "-s", str(out)) == 0
        return code

    def test_block_family_matches_homomorphism_search(self, tmp_path):
        pattern = complete_bipartite_pattern()
        verdicts = set()
        for c, size, seed, plant in product((1, 2), (1, 2), (1, 2), (True, False)):
            code = self._solve(tmp_path, "psi", seed, "--congestion", str(c),
                               "--class-size", str(size), "--plant" if plant else "--no-plant")
            host, _ = random_host(random.Random(seed), pattern, [size] * 6, 0.5, plant)
            assert code == (1 if find_homomorphism(pattern, host) is None else 0), (c, size, seed)
            verdicts.add(code)
        assert verdicts == {0, 1}

    def test_four_colour_grid_family_matches_clique_search(self, tmp_path):
        verdicts = set()
        for seed, plant in product((1, 2), (True, False)):
            code = self._solve(tmp_path, "mcc", seed, "--size", "6", "--colors", "4",
                               "--plant" if plant else "--no-plant")
            rng = random.Random(seed)
            cg = random_colored_graph(rng, 6, 4, 0.5)
            if plant:
                cg, _ = plant_colorful_clique(rng, cg)
            assert code == (1 if find_colorful_clique(cg, 4) is None else 0), (seed, plant)
            verdicts.add(code)
        assert verdicts == {0, 1}


class TestBench:
    def test_suites_run_and_report(self, capsys):
        for suite in ("dnc-oracle", "congestion", "kernel", "mcc"):
            assert run("bench", "--suite", suite, "--count", "5") == 0
            assert "agreement 5/5" in capsys.readouterr().out

    def test_disagreement_is_refuted(self, monkeypatch, capsys):
        # an oracle that calls every case infeasible disagrees on the feasible ones
        monkeypatch.setattr("dspc.cli.brute_force_oracle", lambda inst: None)
        assert run("bench", "--suite", "congestion", "--count", "5") == 1
        agree = int(capsys.readouterr().out.split()[-1].split("/")[0])
        assert agree < 5


    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_usage_error(self, count, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run("bench", "--suite", "mcc", "--count", count)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --count" in captured.err


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exit_info:
            run("frobnicate")
        assert exit_info.value.code == 2

    def test_log_env_smoke(self, feasible_file, tmp_path, monkeypatch):
        monkeypatch.setenv("DSPC_LOG", "debug")
        assert run("solve", "-i", str(feasible_file),
                   "-o", str(tmp_path / "o.sol")) == 0

    def test_log_level_and_stream_apply_to_each_call(self, feasible_file, tmp_path,
                                                     monkeypatch, capsys):
        # one process, two calls: each reads DSPC_LOG afresh and logs to the
        # stderr of its own call, not to the first call's
        out = str(tmp_path / "o.sol")
        monkeypatch.setenv("DSPC_LOG", "quiet")
        assert run("solve", "-i", str(feasible_file), "-o", out) == 0
        assert "demands:" not in capsys.readouterr().err
        monkeypatch.setenv("DSPC_LOG", "debug")
        assert run("solve", "-i", str(feasible_file), "-o", out) == 0
        assert "DEBUG demands: 0 pinned, 1 direct, 0 searched\n" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", COMMAND_LINES,
                             ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_text_matches_parser_with_every_argument(self, argv):
        # main builds only the invoked command's subparser; what it prints
        # must not show it.
        check(argv)

    def test_each_command_gets_only_its_arguments(self, capsys):
        # command_parser(name) gives on argv[1:] the namespace that the full
        # parser gives on argv, command included, and refuses any other
        # command's line
        valid = {
            "solve": ["solve", "-i", "x.dsp", "--algo", "kernel"],
            "verify": ["verify", "-i", "x.dsp", "-s", "x.sol"],
            "oracle": ["oracle", "-i", "x.dsp"],
            "gen": ["gen", "psi", "--seed", "1", "--no-plant"],
            "bench": ["bench", "--suite", "mcc"],
        }
        assert valid.keys() == COMMANDS.keys()
        for command in COMMANDS:
            parser = command_parser(command)
            for name, argv in valid.items():
                if name == command:
                    args = parser.parse_args(argv[1:])
                    assert args == build_parser().parse_args(argv)
                    assert args.command == command and args.func is COMMANDS[command][2]
                else:
                    with pytest.raises(SystemExit) as exit_info:
                        parser.parse_args(argv)
                    assert exit_info.value.code == 2
                    assert capsys.readouterr().err.startswith(f"usage: dspc {command} ")


def in_fresh_interpreter(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``argv`` in a new Python process that imports this dspc."""
    paths = [os.path.dirname(os.path.dirname(dspc.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env.pop("DSPC_LOG", None)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True, timeout=60)


class TestLoading:
    """A command imports only the modules it calls; root names load on first use."""

    SOLVE = (
        "import json, sys\n"
        "from dspc.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('dspc'))]))\n"
    )

    def _solve(self, *argv):
        proc = in_fresh_interpreter(self.SOLVE, *argv)
        *routing, last = proc.stdout.splitlines(keepends=True)
        code, modules = json.loads(last)
        return code, "".join(routing), set(modules)

    # no reduction module: the solve route lives in dspc.exact
    LOADED = {f"dspc{suffix}" for suffix in ("", ".cli", ".core", ".errors", ".exact", ".formats")}

    def test_solve_loads_only_what_it_calls(self, feasible_file):
        code, _, modules = self._solve("solve", "-i", str(feasible_file))
        assert code == 0
        assert modules == self.LOADED

    @pytest.mark.parametrize("command", ["verify", "oracle"])
    def test_verify_and_oracle_load_what_solve_loads(self, command, feasible_file, tmp_path):
        solution = tmp_path / "inst.sol"
        assert run("solve", "-i", str(feasible_file), "-o", str(solution)) == 0
        argv = ("-s", str(solution)) if command == "verify" else ()
        code, _, modules = self._solve(command, "-i", str(feasible_file), *argv)
        assert code == 0
        assert modules == self.LOADED

    def test_kernel_algo_loads_kernel_and_routes_alike(self, tmp_path, capsys):
        path = tmp_path / "two.dsp"
        path.write_text(emit_instance(Instance(
            Dag(4, ((1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1))), ((1, 4), (1, 4)), 2)))
        code, routing, modules = self._solve("solve", "-i", str(path), "--algo", "kernel")
        # kernel only: no reduction (congestion, edge_disjoint) and no generator module
        assert modules == self.LOADED | {"dspc.kernel"}
        assert run("solve", "-i", str(path), "--algo", "kernel") == code == 0
        assert capsys.readouterr().out == routing

    def test_root_names_resolve_on_first_use(self):
        in_fresh_interpreter(
            "import importlib, sys\n"
            "import dspc\n"
            "assert [m for m in sys.modules if m.startswith('dspc.')] == []\n"
            "for module, names in dspc._EXPORTS.items():\n"
            "    for name in names:\n"
            "        exec(f'from dspc import {name} as value')\n"
            "        assert value is getattr(importlib.import_module('dspc.' + module), name)\n"
            "for name in ('no_such_name', 'DistanceMatrix', 'VerifyReport', 'TransformMap',\n"
            "             'topo_order', 'canonical_shortest_path'):\n"
            "    assert not hasattr(dspc, name), name\n"
            "from dspc import kernel\n"
            "assert kernel is sys.modules['dspc.kernel']\n"
        )


class TestTracedBenchmark:
    """Every name the benchmark's span recorders wrap exists, and no two are one function."""

    def test_traced_solves_record_each_span(self, tmp_path):
        # k = 4 > 3(k - c) = 3: --algo kernel routes 3-demand cores at c = 2,
        # each source to a terminal through one of the two middles 5 and 6
        edges = [(s, m, 1) for s in range(1, 5) for m in (5, 6)]
        edges += [(m, t, 1) for m in (5, 6) for t in range(7, 11)]
        path = tmp_path / "kernel.dsp"
        path.write_text(emit_instance(Instance(
            Dag(10, tuple(edges)), tuple((i, i + 6) for i in range(1, 5)), 3)))
        perfbench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
        proc = in_fresh_interpreter(
            "import json, os, sys\n"
            "sys.dont_write_bytecode = True  # read perfbench/ without writing to it\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import spans\n"
            "tracer = spans.Tracer()\n"
            "spans.install(tracer)\n"
            "from dspc import cli\n"
            "codes = [cli.main(['solve', *argv, '-i', sys.argv[2], '-o', os.devnull])\n"
            "         for argv in ([], ['--algo', 'kernel'])]\n"
            "print(json.dumps([codes, tracer.self_s, tracer.counts]))\n",
            perfbench, str(path),
        )
        codes, self_s, counts = json.loads(proc.stdout)
        assert codes == [0, 0]
        for span in ("exact.search", "congestion.solve", "kernel.solve"):
            assert self_s.get(span, 0) > 0, span
        assert counts.get("kernel.core_solves", 0) >= 1
