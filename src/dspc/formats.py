"""Instance and solution file formats.

Instance files follow a DIMACS-flavored line layout with 1-indexed ids:

    c free-form comment
    p dsp <n> <m> <k> <c> <vertex|edge>
    a <tail> <head> <weight>     (m lines, in order)
    d <source> <terminal>        (k lines, in order)

Every weight is at least 1; the output of each reduction is an ordinary
file. Solution files start with ``s 1`` or ``s 0``; a feasible file
continues with one ``p <i> <len> <v1> ... <vL>`` line per demand, in
demand order.
"""

from __future__ import annotations

from typing import Iterable

from .core import Dag, Instance, MODES, Path, Solution
from .errors import LimitExceeded, ParseError

#: Vertices a file's header may declare before LimitExceeded; ``dspc solve`` peaks at
#: about 170 MB on a chain of this many.
MAX_VERTICES = 2**18


def emit_instance(inst: Instance, comments: Iterable[str] = ()) -> str:
    lines = [f"c {text}" if text else "c" for text in comments]
    lines.append(
        f"p dsp {inst.dag.vertex_count} {inst.dag.edge_count} "
        f"{inst.k} {inst.congestion} {inst.mode}"
    )
    lines.extend(f"a {u} {v} {w}" for u, v, w in inst.dag.edges)
    lines.extend(f"d {s} {t}" for s, t in inst.demands)
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    """Parse an instance file; counts must match the header, and n may not pass MAX_VERTICES."""
    header = None
    edges: list[tuple[int, int, int]] = []
    demands: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        tag = fields[0]
        # Arc lines are most of a file, so they are tested first.
        if tag == "a" and header is not None:
            if len(fields) != 4:
                raise ParseError("arc line must read 'a tail head weight'", lineno)
            try:
                edges.append((int(fields[1]), int(fields[2]), int(fields[3])))
            except ValueError:
                raise ParseError("arc fields must be integers", lineno)
        elif tag == "d" and header is not None:
            if len(fields) != 3:
                raise ParseError("demand line must read 'd source terminal'", lineno)
            try:
                demands.append((int(fields[1]), int(fields[2])))
            except ValueError:
                raise ParseError("demand fields must be integers", lineno)
        elif tag == "c":
            pass
        elif tag == "p":
            if header is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(fields) != 7 or fields[1] != "dsp":
                raise ParseError("problem line must read 'p dsp n m k c mode'", lineno)
            try:
                header = tuple(int(x) for x in fields[2:6]) + (fields[6],)
            except ValueError:
                raise ParseError("problem line counts must be integers", lineno)
            if header[4] not in MODES:
                raise ParseError(f"mode must be one of {MODES}", lineno)
            if header[0] > MAX_VERTICES:  # before any per-vertex table is built
                raise LimitExceeded(
                    f"header declares {header[0]} vertices, more than the bound of {MAX_VERTICES}")
        elif tag in ("a", "d"):
            raise ParseError("arc or demand line before the problem line", lineno)
        else:
            raise ParseError(f"unknown line tag {tag!r}", lineno)
    if header is None:
        raise ParseError("missing problem line")
    n, m, k, c, mode = header
    if len(edges) != m:
        raise ParseError(f"header promises {m} arcs, file has {len(edges)}")
    if len(demands) != k:
        raise ParseError(f"header promises {k} demands, file has {len(demands)}")
    return Instance(Dag(n, tuple(edges)), tuple(demands), c, mode)


def emit_solution(sol: Solution | None) -> str:
    if sol is None:
        return "s 0\n"
    lines = ["s 1"]
    for i, path in enumerate(sol.paths, start=1):
        vertices = " ".join(str(v) for v in path.vertices)
        lines.append(f"p {i} {path.length} {vertices}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> Solution | None:
    """Parse a solution file; returns None for an infeasibility claim."""
    feasible = None
    paths: list[Path] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "c":
            continue
        if tag == "s":
            if feasible is not None:
                raise ParseError("duplicate status line", lineno)
            if fields[1:] not in (["0"], ["1"]):
                raise ParseError("status line must read 's 0' or 's 1'", lineno)
            feasible = fields[1] == "1"
        elif tag == "p":
            if feasible is not True:
                raise ParseError("path line without a preceding 's 1'", lineno)
            if len(fields) < 4:
                raise ParseError("path line must read 'p i len v1 ... vL'", lineno)
            try:
                index = int(fields[1])
                length = int(fields[2])
                vertices = tuple(int(x) for x in fields[3:])
            except ValueError:
                raise ParseError("path fields must be integers", lineno)
            if index != len(paths) + 1:
                raise ParseError(f"path lines must be in demand order, expected {len(paths) + 1}", lineno)
            paths.append(Path(vertices, length))
        else:
            raise ParseError(f"unknown line tag {tag!r}", lineno)
    if feasible is None:
        raise ParseError("missing status line")
    if not feasible:
        return None
    return Solution(tuple(paths))
