#!/usr/bin/env python3
"""Time `dspc solve` on one seeded workload, end to end or per layer.

    python3 perfbench/run.py --workload long-dag --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 1
    python3 perfbench/run.py --workload small-mix --seed 1 --emit DIR

Each operation is one in-process call to ``dspc.cli.main(["solve", ...])`` on
an instance file written during set-up. Exit code 0 or 1 is the verdict; any
other exit, an exception, a verdict that differs from the expected one, or a
routing that fails the independent checker is a failed operation. A run
repeats whole rounds over the workload's operations until ``--seconds`` have
passed and at least MIN_ROUNDS rounds were made. Calls are timed in thread
CPU time and scaled to a reference host speed: every call is followed by a
fixed task (``speed.py``) that gauges how fast the host runs the process
around that call. The time metrics are taken over each operation's mean
scaled call time.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``. ``--workload all`` runs every workload
in its own process and prints a table; ``--emit`` writes a workload's
instance files and expected verdicts to a directory instead of timing
anything.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checker
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 11
MIN_ROUNDS = 3

# The speed task runs after each timed call for this share of the call's CPU
# time (at least once), and for SETUP_GAUGE_S CPU seconds before and after
# each set-up. A call is scaled by the speed the task read within
# GAUGE_WINDOW_S seconds of wall time around it.
GAUGE_SHARE = 0.1
SETUP_GAUGE_S = 0.05
GAUGE_WINDOW_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s.median": "s",
    "solve_s.tail": "s",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail_percentile(operations: int) -> int:
    """p90, or p75 for fewer than 100 operations, so that ten lie beyond it."""
    return 90 if operations >= 100 else 75


def import_dspc():
    """Import dspc from this checkout's src, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "dspc" or m.startswith("dspc.")]:
        del sys.modules[name]
    return importlib.import_module("dspc.cli")


def setup(workload: str, seed: int, workdir: Path):
    """Import dspc, generate the workload and write its instance files."""
    start = time.thread_time()
    cli = import_dspc()
    from dspc.formats import emit_instance

    cases = workloads.build(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for index, case in enumerate(cases):
        path = workdir / f"{case.name}.dsp"
        path.write_text(emit_instance(case.instance))
        for algo in case.algos:
            ops.append((index, ["solve", "-i", str(path), "--algo", algo]))
    return time.thread_time() - start, cli, cases, ops


def run_rounds(main, ops, seconds: float, on_round=None):
    """Call every operation once per round until the time and round minimums are met.

    Each call writes its solution to standard output, which is caught in
    memory, so no timed call creates a file. Returns each operation's
    outcome counts, and for each round the raw call times and speed factors
    in operation order.
    """
    outcomes = [Counter() for _ in ops]
    stamps, raw, tasks, spent = [], [], [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        for i, (_case, argv) in enumerate(ops):
            caught = io.StringIO()
            with contextlib.redirect_stdout(caught):
                stamps.append(time.perf_counter())
                t0 = time.thread_time()
                try:
                    code = main(argv)
                except (Exception, SystemExit) as exc:
                    code = f"{type(exc).__name__}: {exc}"
                raw.append(time.thread_time() - t0)
            n, s = speed.run(GAUGE_SHARE * raw[-1])
            tasks.append(n)
            spent.append(s)
            outcomes[i][(code, caught.getvalue() if code in (0, 1) else None)] += 1
        rounds += 1
        if on_round is not None:
            on_round()
        if time.perf_counter() - start >= seconds and rounds >= MIN_ROUNDS:
            break
    factors = speed.local_factors(stamps, tasks, spent, GAUGE_WINDOW_S)
    k = len(ops)
    return (outcomes, [raw[r * k:(r + 1) * k] for r in range(rounds)],
            [factors[r * k:(r + 1) * k] for r in range(rounds)])


def judge(workload: str, cases, ops, outcomes):
    """Find the operations that failed, against verdicts computed apart from dspc.

    Returns the number of failed calls, the indices of operations with a
    failed call, and whether every answer given was right.
    """
    expected = [workloads.expected_verdict(workload, case) for case in cases]
    failed, bad_ops, wrong = 0, set(), 0
    for op, ((index, argv), seen) in enumerate(zip(ops, outcomes)):
        problem = checker.read_instance(Path(argv[2]).read_text())
        for (code, text), count in seen.items():
            if code not in (0, 1) or text is None:
                fault = f"exit {code!r}"
            elif (code == 0) != expected[index]:
                fault = f"verdict {code}, expected {0 if expected[index] else 1}"
            else:
                fault = _output_fault(problem, code, text)
            if fault is not None:
                failed += count
                bad_ops.add(op)
                wrong += not fault.startswith("exit")
                print(f"{cases[index].name} {argv[-1]}: {fault}", file=sys.stderr)
    return failed, bad_ops, wrong == 0


def _output_fault(problem, code: int, text: str) -> str | None:
    try:
        paths = checker.read_solution(text)
    except ValueError as exc:
        return f"output unreadable: {exc}"
    if code == 1:
        return None if paths is None else "output routes an infeasible verdict"
    if paths is None:
        return "output claims infeasible on exit 0"
    found = checker.routing_problems(problem, paths)
    return f"routing: {'; '.join(found)}" if found else None


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = speed.run(SETUP_GAUGE_S)
            elapsed, cli, cases, ops = setup(workload, seed, workdir)
            after = speed.run(SETUP_GAUGE_S)
            setups.append(elapsed / speed.factor(before[0] + after[0], before[1] + after[1]))

        tracer = rounds_seen = None
        if traced:
            tracer = spans.Tracer()
            spans.install(tracer)
            rounds_seen = []

            def on_round():
                rounds_seen.append(dict(tracer.counts))

        outcomes, raw, factors = run_rounds(
            cli.main, ops, seconds, on_round if traced else None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, bad_ops, correct = judge(workload, cases, ops, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(raw)
    attempted = rounds * len(ops)
    # scaled[op] lists the operation's call times over the rounds.
    scaled = [[r[op] / f[op] for r, f in zip(raw, factors)] for op in range(len(ops))]
    per_round = " ".join(f"{statistics.median(r):.6f}/{statistics.fmean(f):.3f}"
                         for r, f in zip(raw, factors))
    print(f"{workload}: {rounds} rounds of {len(ops)} calls on "
          f"{len(cases)} instances{' (traced)' if traced else ''}, median call "
          f"{statistics.median(c for r in raw for c in r):.6f} s raw, "
          f"{statistics.median(c for t in scaled for c in t):.6f} s scaled; per round, "
          f"median raw call and mean speed factor: {per_round}", file=sys.stderr)
    if traced:
        first = rounds_seen[0]
        for prev, cur in zip(rounds_seen, rounds_seen[1:]):
            if {k: cur[k] - prev.get(k, 0) for k in cur} != first:
                print("warning: counters differ between rounds", file=sys.stderr)
                break
        metrics = spans.layer_metrics(tracer.self_s, first, len(rounds_seen), len(ops))
    else:
        per_op = [statistics.fmean(t) for t in scaled]
        decided = [t for op, t in enumerate(scaled) if op not in bad_ops]
        values = {
            "setup_s": statistics.median(setups),
            "solve_s.median": statistics.median(per_op),
            "solve_s.tail": statistics.quantiles(per_op, n=100)[tail_percentile(len(ops)) - 1],
            "verdicts_per_s": sum(map(len, decided)) / sum(map(sum, decided)) if decided else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def emit(workload: str, seed: int, target: Path) -> None:
    """Write the workload's instance files and expected verdicts to ``target``."""
    import_dspc()
    from dspc.formats import emit_instance

    target.mkdir(parents=True, exist_ok=True)
    lines = []
    for case in workloads.build(workload, seed):
        (target / f"{case.name}.dsp").write_text(emit_instance(case.instance))
        verdict = "feasible" if workloads.expected_verdict(workload, case) else "infeasible"
        lines.append(f"{case.name}.dsp\t{verdict}\t{','.join(case.algos)}")
    (target / "expected.tsv").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} instances and expected.tsv to {target}")


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Run every workload in a fresh process and print the results as a table."""
    status = 0
    for workload in workloads.WORKLOADS:
        results = {}
        for mode in ([0, 1] if traced else [0]):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(mode)],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            results[mode] = (json.loads(proc.stdout.splitlines()[-1]), proc.stderr)
        result = results[0][0]
        status |= not result["correct"] or result["failed"] > 0
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<32} {metric['value']:>14.6f} {metric['unit']}")
        if traced:
            for name, metric in results[1][0]["metrics"].items():
                print(f"  {name:<32} {metric['value']:>14.6f} {metric['unit']}")
            untraced, traced_call = (_median_call(results[mode][1]) for mode in (0, 1))
            print(f"  tracing overhead on the median call: {traced_call - untraced:+.6f} s "
                  f"({(traced_call - untraced) / untraced:+.1%})")
    return status


def _median_call(stderr: str) -> float:
    """The median scaled call time from a run's stderr summary."""
    line = [s for s in stderr.splitlines() if " s scaled; " in s][-1]
    return float(line.split(" s scaled; ")[0].split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--emit", type=Path, default=None,
                        help="write instance files and expected verdicts here and exit")
    args = parser.parse_args(argv)
    if not (SRC / "dspc" / "__init__.py").is_file():
        print(f"error: no dspc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.emit is not None:
        if args.workload == "all":
            parser.error("--emit needs a single workload")
        emit(args.workload, args.seed, args.emit)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
