"""Command-line interface: solve, verify, generate, oracle, and bench.

Exit codes: 0 feasible/verified, 1 infeasible/refuted (for bench: a case
on which its two routes disagree), 2 usage or input error or any other
failure, recursion and memory errors included. DSPC_LOG (quiet, info or
debug) sets the stderr logging of each call.

A call that starts with a command name parses the rest with that command's
own parser alone; any other call, or one with arguments left over, gets the
parser with every command. Usage, help and error text are the same either way.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path as FilePath

# Only what solve, verify and oracle call; gen, bench and --algo kernel
# import the rest when they run.
from .core import EDGE, VERTEX, verify_solution
from .errors import DspcError
from .exact import brute_force_oracle, solve_with_congestion
from .formats import emit_instance, emit_solution, parse_instance, parse_solution

log = logging.getLogger("dspc")


class _StderrHandler(logging.StreamHandler):
    """Writes to ``sys.stderr`` as it is at each record, not as it was when built."""

    stream = property(lambda self: sys.stderr, lambda self, _stream: None)


_stderr = _StderrHandler()
_stderr.setFormatter(logging.Formatter("%(levelname)s %(message)s"))


def _setup_logging() -> None:
    log.setLevel({"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("DSPC_LOG", "quiet"), logging.WARNING))
    log.addHandler(_stderr)  # once: a handler already added is skipped


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        FilePath(path).write_text(text)


def _cmd_solve(args) -> int:
    inst = parse_instance(FilePath(args.instance).read_text())
    if args.mode is not None and args.mode != inst.mode:
        raise DspcError(f"instance is {inst.mode} mode, not {args.mode}")
    if args.algo == "kernel":
        from .kernel import solve_kdspc

        sol = solve_kdspc(inst)
    else:
        sol = solve_with_congestion(inst)
    _write(args.output, emit_solution(sol))
    return 0 if sol is not None else 1


def _cmd_verify(args) -> int:
    inst = parse_instance(FilePath(args.instance).read_text())
    sol = parse_solution(FilePath(args.solution).read_text())
    if sol is None:
        print("solution file claims infeasibility; nothing to verify", file=sys.stderr)
        return 1
    report = verify_solution(inst, sol)
    if report.feasible:
        return 0
    for violation in report.violations:
        print(f"violation: {violation}", file=sys.stderr)
    return 1


def _cmd_oracle(args) -> int:
    inst = parse_instance(FilePath(args.instance).read_text())
    sol = brute_force_oracle(inst)
    sys.stdout.write(emit_solution(sol))
    return 0 if sol is not None else 1


#: ``dspc gen`` family -> the arguments its ``params`` comment records, in order.
_GEN_PARAMS = {
    "random": ("size", "demands", "congestion", "mode", "edge_prob", "max_weight"),
    "mcc": ("size", "colors", "edge_prob", "plant"),
    "psi": ("class_size", "congestion", "edge_prob", "plant"),
}


def _cmd_gen(args) -> int:
    import random

    from .hardness import (
        complete_bipartite_pattern,
        mcc_to_planar_edsp,
        plant_colorful_clique,
        psi_to_dspc,
        random_colored_graph,
        random_host,
    )
    from .randgen import random_instance

    rng = random.Random(args.seed)
    comments = [f"family={args.family} seed={args.seed}", "params " + " ".join(
        f"{name.replace('_', '-')}={getattr(args, name)}" for name in _GEN_PARAMS[args.family])]
    if args.family == "random":
        inst = random_instance(
            rng,
            n=args.size,
            k=args.demands,
            congestion=args.congestion,
            mode=args.mode,
            edge_prob=args.edge_prob,
            max_weight=args.max_weight,
        )
    elif args.family == "mcc":
        cg = random_colored_graph(rng, args.size, args.colors, args.edge_prob)
        witness = None
        if args.plant:
            cg, witness = plant_colorful_clique(rng, cg)
        inst, layout = mcc_to_planar_edsp(cg, args.colors)
        if witness is not None:
            layout.routing(witness)  # verifies the plant
            comments.append("witness clique " + " ".join(str(v) for v in witness))
    else:  # psi
        pattern = complete_bipartite_pattern()
        sizes = [args.class_size] * pattern.vertex_count
        host, witness = random_host(rng, pattern, sizes, args.edge_prob, plant=args.plant)
        inst, layout = psi_to_dspc(pattern, host, args.congestion)
        if witness is not None:
            layout.routing(witness)
            comments.append("witness homomorphism " + " ".join(str(j) for j in witness))
    _write(args.output, emit_instance(inst, comments))
    return 0


def _cmd_bench(args) -> int:
    import random
    import time

    from .hardness import find_colorful_clique, mcc_to_planar_edsp, random_colored_graph
    from .kernel import solve_kdspc
    from .randgen import random_instance

    # Each suite draws one case from its rng and answers it by two routes.
    def oracle(rng):
        inst = random_instance(
            rng, n=rng.randint(2, 8), k=rng.randint(1, 3), congestion=rng.randint(1, 2)
        )
        return solve_with_congestion(inst), brute_force_oracle(inst)

    def kernel(rng):
        k = rng.choice((4, 5))
        inst = random_instance(rng, n=rng.randint(3, 8), k=k, congestion=k - 1)
        return solve_kdspc(inst), solve_with_congestion(inst)

    def mcc(rng):
        cg = random_colored_graph(rng, n=rng.randint(2, 5), k=2)
        inst, _layout = mcc_to_planar_edsp(cg, 2)
        return solve_with_congestion(inst), find_colorful_clique(cg, 2)

    suites = {"oracle": oracle, "kernel": kernel, "mcc": mcc}
    started = time.monotonic()
    agree = 0
    for seed in range(args.count):
        got, want = suites[args.suite](random.Random(seed))
        agree += (got is None) == (want is None)
    print(f"{args.suite} agreement {agree}/{args.count}")
    log.info("suite %s finished in %.2fs", args.suite, time.monotonic() - started)
    return 0 if agree == args.count else 1


def _algo(text: str) -> str:
    """``--algo``: ``dnc``, the name of a divide-and-conquer solver since removed, means exact."""
    return "exact" if text == "dnc" else text


def _solve_args(solve: argparse.ArgumentParser) -> None:
    solve.add_argument("-i", "--instance", required=True)
    solve.add_argument("-o", "--output", default=None)
    solve.add_argument("--algo", type=_algo, choices=("exact", "kernel"), default="exact")
    solve.add_argument("--mode", choices=(VERTEX, EDGE), default=None,
                       help="assert the instance mode")


def _verify_args(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("-i", "--instance", required=True)
    verify.add_argument("-s", "--solution", required=True)


def _oracle_args(oracle: argparse.ArgumentParser) -> None:
    oracle.add_argument("-i", "--instance", required=True)


def _gen_args(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("family", choices=("psi", "mcc", "random"))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("-o", "--output", default=None)
    gen.add_argument("--size", type=int, default=6, help="vertex count (random, mcc)")
    gen.add_argument("--demands", type=int, default=2, help="demand count (random)")
    gen.add_argument("--congestion", type=int, default=1, help="budget (random, psi)")
    gen.add_argument("--mode", choices=(VERTEX, EDGE), default=VERTEX)
    gen.add_argument("--edge-prob", type=float, default=0.5)
    gen.add_argument("--max-weight", type=int, default=2)
    gen.add_argument("--colors", type=int, default=2, help="color count (mcc)")
    gen.add_argument("--class-size", type=int, default=1, help="host class size (psi)")
    gen.add_argument("--plant", action=argparse.BooleanOptionalAction, default=True,
                     help="plant a witness (mcc, psi)")


def _case_count(text: str) -> int:
    """``--count``: an integer of at least 1, so that no suite passes with no cases."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return count


def _bench_args(bench: argparse.ArgumentParser) -> None:
    bench.add_argument("--suite", choices=("oracle", "kernel", "mcc"), required=True)
    bench.add_argument("--count", type=_case_count, default=50)


#: Subcommand name -> (help, argument adder, handler), in usage order.
COMMANDS = {
    "solve": ("solve an instance file", _solve_args, _cmd_solve),
    "verify": ("check a solution file against its instance", _verify_args, _cmd_verify),
    "oracle": ("solve by brute force (small instances only)", _oracle_args, _cmd_oracle),
    "gen": ("generate an instance file", _gen_args, _cmd_gen),
    "bench": ("run a built-in agreement suite", _bench_args, _cmd_bench),
}


def command_parser(name: str, parser=None) -> argparse.ArgumentParser:
    """Command ``name``'s arguments, name and handler on ``parser`` (a subparser) or its own."""
    parser = parser or argparse.ArgumentParser(prog=f"dspc {name}")
    _help, add_arguments, handler = COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(command=name, func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The dspc parser with every command, for what no command's own parser takes."""
    parser = argparse.ArgumentParser(
        prog="dspc", description="Disjoint shortest paths with congestion on weighted DAGs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _add_arguments, _handler) in COMMANDS.items():
        command_parser(name, sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    _setup_logging()
    if argv is None:
        argv = sys.argv[1:]
    args, extra = (command_parser(argv[0]).parse_known_args(argv[1:])
                   if argv and argv[0] in COMMANDS else (None, True))
    if extra:  # the full parser gives top-level help and the top-level errors
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DspcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
