"""Recorded digests of ``dspc gen`` and ``dspc solve`` output, checked without pytest.

Each command line below must exit 0 and print, on standard output, the
bytes whose sha256 digest is recorded next to it. The lines cover both
gadget families, planted and unplanted: the grid family at 2 to 4 colours
(3 colours is the benchmark's gadgets workload) and the block family at
c = 1 to 3, plus one random DAG. Each generated file is then solved with
``dspc solve``, whose exit code and output digest are recorded too. A last
digest covers the solutions of seeded ``random_instance`` batches in both
modes, which the solver routes by its pin pass alone, by walks in turn or
the search after pinning some demands, or by walks in turn or the search
alone. A second covers a batch that
the solver mostly routes without a search, since no position can meet more
than c demands: ``random_instance`` at c = k, and chains of small random
blocks with two to four long demands at c = 2. A third covers a batch that
the search does the most of: ``search_heavy_instance`` draws in both modes
and ``bottleneck_instance`` draws. Each batch records, next to its digest,
the dead states and the moves checked that its searches take in all, so a
change that keeps the routing but searches more or less shows too, and
the demands pinned and routed directly over the solves that route, so a
change that keeps the routing but pins more or fewer shows as well. A
solve that finds no routing is left out of those two counts: when the pin
pass refutes it, which demands were pinned first depends on the order of
the pass. Any
drift in generation or in the routing printed, between Python versions too,
changes a digest. Run from the repository root, on any supported Python:

    PYTHONPATH=src python tests/gen_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator

from dspc.cli import main
from dspc.core import Dag, Instance, verify_solution
from dspc.exact import DisjointShortestSolver
from dspc.formats import emit_solution
from dspc.randgen import bottleneck_instance, random_instance, search_heavy_instance

#: gen command line -> (digest of its output, exit code of solving it, digest of that solution)
GOLDEN = {
    "gen mcc --seed 7 --size 5 --colors 2": (
        "0a24658192c1cc1868a1a8705a84e141ec594f4ca55fd7c4e91471a739f290ef",
        0, "8b47550384539d72642213b73f3c0537048abdfae8179298168ceda21d2e1d9e"),
    "gen mcc --seed 7 --size 5 --colors 2 --no-plant": (
        "0e6d5887386f01f22816a67cefa5e3aa941270a83db1dc0f978b10f14dce8bf6",
        0, "8b47550384539d72642213b73f3c0537048abdfae8179298168ceda21d2e1d9e"),
    "gen mcc --seed 3 --size 6 --colors 3": (
        "2c5c1055728f8a19ee51fb9a08a4e5578d3b9366e46629b40773cbacbf9baa64",
        0, "1e5fa516416e2a8f877b4ebf7b732e04f0bdcf494933386ec3f442c959d13ecf"),
    "gen mcc --seed 4 --size 6 --colors 3 --no-plant": (
        "80b397a65e2a14395414f47dc8b571f3c07bcf041d2b5510a6f12aeffad0c788",
        1, "06b18cc0d9ef4dd49b9345c364cf1f805010f459cba60d0f144bf65582a8e9c0"),
    "gen mcc --seed 1 --size 6 --colors 4": (
        "1d63bd6dff5baa1fd3137139e6017f376190307342cfc8581505806a4bf3006d",
        0, "0920b7979092bad921ea5eb2c63a8fa5f06491049917a6c9b414a3c5f977367e"),
    "gen psi --seed 3 --class-size 1 --congestion 1": (
        "9d057d2d0f6f01165b02fdaabcb3b57c48dada305fc7b5fefdb0f06e5987e8bf",
        0, "03ff3cf3e712f3019d1c85fe8dea3fbbe42ce7bbf12b2a35cab22bded0d1cba0"),
    "gen psi --seed 3 --class-size 2 --congestion 2": (
        "453b248766a780fe388d1db7fbb3bb16b5c29d28b6db9a1dfc390e8ebe8122ef",
        0, "281b8026371992bf3372f3a086990c8f9825f9500c0a9487b23a9e9fe55f5471"),
    "gen psi --seed 5 --class-size 3 --congestion 3": (
        "9be62264523b6d32f520141cd564628c6af56b607ed0019491f58b3ed48bd86c",
        0, "fe5f8b5dd374de6cbbc21972d789e8152fe297bcb04b25f0694d89fd38994eb2"),
    "gen psi --seed 2 --class-size 2 --congestion 1 --no-plant": (
        "4f6468d14235c61aa0420d4bb3455fec0866025089c3b098a3402e637f277466",
        1, "06b18cc0d9ef4dd49b9345c364cf1f805010f459cba60d0f144bf65582a8e9c0"),
    "gen psi --seed 6 --class-size 3 --congestion 3 --no-plant": (
        "96b475fc30a5b063b33742f58eab85516fdc8f58691dd5b6284057fdcaa5f1a0",
        1, "06b18cc0d9ef4dd49b9345c364cf1f805010f459cba60d0f144bf65582a8e9c0"),
    "gen random --seed 7 --size 7 --demands 3": (
        "bb4f3b9adb881cba08fddec7019ae49b3df9948b53dc5b83115c18a25f18f137",
        1, "06b18cc0d9ef4dd49b9345c364cf1f805010f459cba60d0f144bf65582a8e9c0"),
}

#: Seeds per mode of the random and direct batches.
BATCH_SEEDS = 2000


def random_draw(rng: random.Random, mode: str, at_k: bool = False) -> Instance:
    """A random DAG of up to 9 vertices with 1 to k = 5 demands, at c = k or any c from 1 to k."""
    k = rng.randint(1, 5)
    return random_instance(
        rng, n=rng.randint(1, 9), k=k, congestion=k if at_k else rng.randint(1, k), mode=mode,
        edge_prob=rng.choice((0.3, 0.5, 0.7)), max_weight=rng.randint(1, 3),
    )


def random_batch() -> Iterator[Instance]:
    """One ``random_draw`` per seed, both modes."""
    for mode in ("vertex", "edge"):
        for seed in range(BATCH_SEEDS):
            yield random_draw(random.Random(seed), mode)


def block_chain(rng: random.Random, blocks: int, size: int) -> Dag:
    """Random blocks of ``size`` vertices in a row, each sharing its last vertex with the next."""
    edges = []
    for entry in range(1, blocks * (size - 1), size - 1):
        for u in range(entry, entry + size):
            for v in range(u + 1, entry + size):
                # the spine edge u -> u + 1 keeps every later vertex reachable
                if v == u + 1 or rng.random() < 0.5:
                    edges.append((u, v, rng.randint(1, 2)))
    return Dag(blocks * (size - 1) + 1, tuple(edges))


def direct_batch() -> Iterator[Instance]:
    """Draws that rarely meet more than c demands at one position, both modes.

    Even seeds make a ``random_draw`` at c = k; odd seeds a chain of 3 to
    6 blocks of 4 or 5 vertices with 2 to 4 demands, each spanning 40 to 80
    per cent of the chain, at c = 2.
    """
    for mode in ("vertex", "edge"):
        for seed in range(BATCH_SEEDS):
            rng = random.Random(seed)
            if seed % 2 == 0:
                yield random_draw(rng, mode, at_k=True)
                continue
            dag = block_chain(rng, rng.randint(3, 6), rng.randint(4, 5))
            n, demands = dag.vertex_count, []
            for _ in range(rng.randint(2, 4)):
                span = rng.randint(int(0.4 * n), int(0.8 * n))
                s = rng.randint(1, n - span)
                demands.append((s, s + span))
            yield Instance(dag, tuple(demands), 2, mode)


#: Seeds per mode of the search batch's ``search_heavy_instance`` draws; half as many bottlenecks.
SEARCH_SEEDS = 300


def search_batch() -> Iterator[Instance]:
    """Search-heavy draws in both modes, then bottleneck draws.

    ``search_heavy_instance`` draws k from 2 to 6 and c from 1 to k - 1,
    below the demand count; ``bottleneck_instance`` draws k from 4 to 6 at
    c = 2.
    """
    for mode in ("vertex", "edge"):
        for seed in range(SEARCH_SEEDS):
            rng = random.Random(seed)
            k = rng.randint(2, 6)
            yield search_heavy_instance(rng, k, rng.randint(1, k - 1), mode)
    for seed in range(SEARCH_SEEDS // 2):
        rng = random.Random(seed)
        yield bottleneck_instance(rng, rng.randint(4, 6), 2)


#: Batch name -> (its instances, digest of their solutions in order, dead states, moves checked,
#: and the pinned and direct demands of the solves that route).
BATCHES: dict[str, tuple[Callable[[], Iterator[Instance]], str, int, int, int, int]] = {
    "random": (random_batch, "8d62e983abc7f39b896999fbe6e9f5786e075aad520207d0ab403d7d14790d41",
               0, 0, 1252, 3041),
    "direct": (direct_batch, "024e1f8912f3e3910ad06e6cc9b69bb74ed67ecec13c40b1a1610e5670314e29",
               480, 744, 176, 4368),
    "search": (search_batch, "6d670f213d4ce9f325bcd28d4984cc0c113502bfd68f2fb0296c479f9b2ff944",
               829, 1546, 0, 270),
}


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code of ``dspc <argv>`` and what it printed on standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(line: str) -> None:
    """Raise AssertionError unless ``dspc <line>`` and solving its file print the recorded bytes."""
    gen_digest, solve_code, solve_digest = GOLDEN[line]
    code, text = run(line.split())
    if code != 0:
        raise AssertionError(f"dspc {line}: exit {code}, expected 0")
    if sha256(text) != gen_digest:
        raise AssertionError(f"dspc {line}: output digest {sha256(text)}, recorded {gen_digest}")
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "instance.dsp"
        path.write_text(text)
        code, text = run(["solve", "-i", str(path)])
    if (code, sha256(text)) != (solve_code, solve_digest):
        raise AssertionError(f"dspc solve on dspc {line}: exit {code}, digest {sha256(text)}; "
                             f"recorded exit {solve_code}, digest {solve_digest}")


def check_batch(name: str = "random") -> None:
    """Raise AssertionError unless the named batch solves to the recorded bytes, effort and pins.

    Each instance is solved in-process by the solver ``dspc solve`` runs,
    and each routing it returns is verified, as ``dspc solve`` does.
    """
    draws, *recorded = BATCHES[name]
    solver, texts, dead, checked, pinned, direct = DisjointShortestSolver(), [], 0, 0, 0, 0
    for inst in draws():
        routed = solver.solve(inst)
        if routed is not None and not verify_solution(inst, routed).feasible:
            raise AssertionError(f"{name} batch: a routing fails verification")
        texts.append(emit_solution(routed))
        dead += len(solver.memo.entries)
        checked += solver.checked
        if routed is not None:
            pinned += len(solver.pinned)
            direct += len(solver.direct)
    got = [sha256("".join(texts)), dead, checked, pinned, direct]
    if got != recorded:
        raise AssertionError(f"{name} batch: digest, dead states, moves checked, pinned and "
                             f"direct demands {got}, recorded {recorded}")


if __name__ == "__main__":
    for line in GOLDEN:
        check(line)
    for name in BATCHES:
        check_batch(name)
    print(f"{len(GOLDEN)} gen command lines and their solves, and {len(BATCHES)} seeded "
          f"batches of solves, print the recorded bytes and take the recorded search effort and "
          f"pins on Python {sys.version.split()[0]}")
