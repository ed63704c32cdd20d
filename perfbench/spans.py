"""Span recorders around dspc's public functions, installed from outside the package.

``install`` replaces each traced function with a wrapper in every loaded
dspc module that holds a reference to it, so calls made through
``from .exact import solve_disjoint_shortest`` are recorded too. A span's
self time is its duration minus the time of the spans nested inside it.
Counters are taken at the same boundaries, from the traced calls' arguments
and results.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Per-layer metrics in report order: name -> unit.
METRICS = {
    "formats.parse_s": "s",
    "formats.emit_s": "s",
    "cli.self_s": "s",
    "core.distances_s": "s",
    "core.distances_cells": "count",
    "core.distances_builds": "1/call",
    "core.verify_s": "s",
    "congestion.isolate_s": "s",
    "congestion.expand_s": "s",
    "congestion.project_s": "s",
    "congestion.expanded_vertices": "count",
    "congestion.expanded_edges": "count",
    "edge_disjoint.split_s": "s",
    "edge_disjoint.project_s": "s",
    "edge_disjoint.split_vertices": "count",
    "edge_disjoint.split_edges": "count",
    "exact.search_s": "s",
    "exact.memo_entries": "count",
    "exact.memo_feasible_ratio": "ratio",
    "exact.merge_calls": "count",
    "exact.merge_accept_ratio": "ratio",
    "kernel.solve_s": "s",
    "kernel.core_solves": "count",
    "kernel.candidates_verified": "count",
}


class Tracer:
    """Accumulates self time per span name and event counts, in memory."""

    def __init__(self):
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list = []  # [span name, seconds spent in nested spans]

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def span(self, name, fn, before=None, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.thread_time() - start
                stack.pop()
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper


def _counting(fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the traced dspc functions in every loaded dspc module."""
    from dspc import cli, congestion, core, edge_disjoint, exact, formats, kernel

    counts = tracer.counts

    def count_expand(args, result):
        counts["congestion.expanded_vertices"] += result[0].dag.vertex_count
        counts["congestion.expanded_edges"] += result[0].dag.edge_count

    def count_split(args, result):
        counts["edge_disjoint.split_vertices"] += result[0].dag.vertex_count
        counts["edge_disjoint.split_edges"] += result[0].dag.edge_count

    def count_merge(args, result):
        counts["exact.merge_calls"] += 1
        counts["merge_accepts"] += result is not None

    def count_memo(args, result):
        entries = args[0].memo.entries
        counts["exact.memo_entries"] += len(entries)
        counts["memo_feasible"] += sum(1 for v in entries.values() if v is not None)

    def from_kernel(key):
        def before(args):
            if tracer.parent() == "kernel.solve":
                counts[key] += 1

        return before

    def count_table(args, result):
        counts["distance_tables"] += 1
        counts["core.distances_cells"] += len(result.table) ** 2

    plan = [
        (cli, "main", tracer.span("cli.self", cli.main)),
        (formats, "parse_instance", tracer.span("formats.parse", formats.parse_instance)),
        (formats, "emit_solution", tracer.span("formats.emit", formats.emit_solution)),
        (core, "verify_solution", tracer.span(
            "core.verify", core.verify_solution, before=from_kernel("kernel.candidates_verified"))),
        (congestion, "isolate_terminals",
         tracer.span("congestion.isolate", congestion.isolate_terminals)),
        (congestion, "expand_congestion",
         tracer.span("congestion.expand", congestion.expand_congestion, after=count_expand)),
        (congestion, "project_solution",
         tracer.span("congestion.project", congestion.project_solution)),
        (congestion, "solve_with_congestion", tracer.span(
            "congestion.solve", congestion.solve_with_congestion,
            before=from_kernel("kernel.core_solves"))),
        (edge_disjoint, "edge_split_transform",
         tracer.span("edge_disjoint.split", edge_disjoint.edge_split_transform, after=count_split)),
        (edge_disjoint, "project_edge_solution",
         tracer.span("edge_disjoint.project", edge_disjoint.project_edge_solution)),
        (edge_disjoint, "solve_edsp", tracer.span("edge_disjoint.solve", edge_disjoint.solve_edsp)),
        (exact, "solve_disjoint_shortest",
         tracer.span("exact.search", exact.solve_disjoint_shortest)),
        (exact, "merge_check", _counting(exact.merge_check, count_merge)),
        (kernel, "solve_kdspc", tracer.span("kernel.solve", kernel.solve_kdspc)),
    ]
    modules = [m for name, m in sys.modules.items() if name == "dspc" or name.startswith("dspc.")]
    for home, attr, wrapper in plan:
        original = getattr(home, attr)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    solver = exact.DisjointShortestSolver
    solver.solve = _counting(solver.solve, count_memo)

    # Dag.distances is a cached_property: wrap the function it caches.
    table = core.Dag.__dict__["distances"]
    traced = functools.cached_property(
        tracer.span("core.distances", table.func, after=count_table)
    )
    traced.__set_name__(core.Dag, "distances")
    core.Dag.distances = traced


def layer_metrics(self_s: dict, counts: dict, rounds: int, calls_per_round: int) -> dict:
    """Per-layer metrics for one pass over the workload.

    ``self_s`` holds self times summed over ``rounds`` passes; ``counts``
    holds the counters of a single pass.
    """
    values = {}
    for name, unit in METRICS.items():
        if unit == "s":
            values[name] = self_s.get(name[: -len("_s")], 0.0) / rounds
        elif unit == "count":
            values[name] = counts.get(name, 0)
    values["core.distances_builds"] = counts.get("distance_tables", 0) / calls_per_round
    values["exact.memo_feasible_ratio"] = _ratio(counts, "memo_feasible", "exact.memo_entries")
    values["exact.merge_accept_ratio"] = _ratio(counts, "merge_accepts", "exact.merge_calls")
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}


def _ratio(counts: dict, part: str, base: str) -> float:
    return counts.get(part, 0) / counts[base] if counts.get(base) else 0.0
