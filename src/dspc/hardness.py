"""Instance families with planted certificates, built from two gadget constructions.

The block family encodes partitioned subgraph isomorphism: each pattern
vertex becomes a pair of subdivided parallel paths (a block) whose only
cheap crossings sit between consecutive main vertices, so a cross demand's
routing picks one host vertex per class; pattern edges become length-5
demands threaded through the chosen windows of two blocks. Blocking demands
pin the spines and force the congestion structure.

The grid family encodes multi-colored clique: rows and columns of a split
directed grid are claimed by per-color horizontal and vertical demands, and
an orthogonal row/column pair is compatible exactly when the two underlying
vertices are adjacent and differently colored, because only then were their
crossing-cell entry vertices kept separate.

Both generators return the instance together with a layout object that maps
construction coordinates to vertex ids; witnesses are turned into expected
routings against those layouts. Each grid row and column (``_track``) and
each block spine (``_spine``) is spelled once, and the generators chain
their arcs along those same vertex sequences. The graphs carry nothing
beyond their vertex count and edges.

``find_colorful_clique`` and ``find_homomorphism`` decide the source
problems apart from any routing, each through ``core.backtrack``, so no
color count or pattern size reaches the recursion limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Mapping, Sequence

from .core import (
    Dag,
    EDGE,
    Instance,
    Path,
    Solution,
    VERTEX,
    backtrack,
    verify_solution,
)
from .errors import (
    ColorMissing,
    InvariantViolation,
    PatternNotCubicBipartite,
    WitnessInvalid,
)


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph on vertices 1..vertex_count."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.vertex_count
        normalized = []
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise InvariantViolation(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InvariantViolation(f"edge ({u},{v}) out of range 1..{n}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise InvariantViolation(f"duplicate edge {pair}")
            seen.add(pair)
            normalized.append(pair)
        object.__setattr__(self, "edges", tuple(normalized))

    @cached_property
    def adjacent(self) -> frozenset:
        return frozenset(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.adjacent


@dataclass(frozen=True)
class ColoredGraph:
    """An undirected graph with a total coloring into 1..color_count."""

    graph: UndirectedGraph
    colors: tuple[int, ...]  # colors[v - 1] is the color of vertex v
    color_count: int

    def __post_init__(self):
        if len(self.colors) != self.graph.vertex_count:
            raise InvariantViolation("coloring must cover every vertex")
        if any(not 1 <= c <= self.color_count for c in self.colors):
            raise InvariantViolation("colors must lie in 1..color_count")

    def color_of(self, v: int) -> int:
        return self.colors[v - 1]

    def color_class(self, color: int) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.graph.vertex_count + 1)
                     if self.color_of(v) == color)


@dataclass(frozen=True)
class PatternGraph:
    """A 3-regular bipartite pattern; side A is 1..h/2, side B the rest."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # ordered; (a, b) with a in A, b in B

    def __post_init__(self):
        h = self.vertex_count
        if h < 2 or h % 2:
            raise PatternNotCubicBipartite("pattern needs an even vertex count")
        half = h // 2
        degree = [0] * (h + 1)
        seen = set()
        for a, b in self.edges:
            if not (1 <= a <= half < b <= h):
                raise PatternNotCubicBipartite(
                    f"edge ({a},{b}) does not cross the fixed bipartition"
                )
            if (a, b) in seen:
                raise PatternNotCubicBipartite(f"duplicate edge ({a},{b})")
            seen.add((a, b))
            degree[a] += 1
            degree[b] += 1
        if any(degree[v] != 3 for v in range(1, h + 1)):
            raise PatternNotCubicBipartite("every pattern vertex needs degree exactly 3")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def complete_bipartite_pattern() -> PatternGraph:
    """The 6-vertex, 9-edge complete bipartite cubic pattern."""
    return PatternGraph(6, tuple((a, b) for a in (1, 2, 3) for b in (4, 5, 6)))


@dataclass(frozen=True)
class HostGraph:
    """A host partitioned into one class per pattern vertex.

    Edges join members of different classes and are written
    ((class, member), (class, member)) with the lower class first.
    """

    class_sizes: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __post_init__(self):
        if any(size < 1 for size in self.class_sizes):
            raise InvariantViolation("every host class needs at least one member")
        normalized = []
        seen = set()
        h = len(self.class_sizes)
        for a, b in self.edges:
            if a[0] == b[0]:
                raise InvariantViolation("host edges must join different classes")
            pair = (a, b) if a[0] < b[0] else (b, a)
            for cls, member in pair:
                if not (1 <= cls <= h and 1 <= member <= self.class_sizes[cls - 1]):
                    raise InvariantViolation(f"host vertex ({cls},{member}) out of range")
            if pair in seen:
                raise InvariantViolation(f"duplicate host edge {pair}")
            seen.add(pair)
            normalized.append(pair)
        object.__setattr__(self, "edges", tuple(normalized))

    @cached_property
    def adjacent(self) -> frozenset:
        return frozenset(self.edges)

    def has_edge(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        return ((a, b) if a[0] < b[0] else (b, a)) in self.adjacent


# ---------------------------------------------------------------------------
# Multi-colored clique via the split planar grid
# ---------------------------------------------------------------------------


def clique_to_mcc(g: UndirectedGraph, k: int) -> ColoredGraph:
    """Lift a clique instance to a multi-colored one: k copies per vertex.

    Copy i of every vertex gets color i; copies of two adjacent originals
    are connected in every color combination. Vertex ids come out grouped by
    color, ascending, so the result feeds the grid generator directly.
    The lifted graph has a colorful k-clique iff g has a k-clique.
    """
    if k < 2:
        raise InvariantViolation("need at least two colors")
    n = g.vertex_count

    def copy_id(v: int, color: int) -> int:
        return (color - 1) * n + v

    edges = []
    for u, v in g.edges:
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                edges.append((copy_id(u, i), copy_id(v, j)))
    colors = tuple((idx // n) + 1 for idx in range(n * k))
    return ColoredGraph(UndirectedGraph(n * k, tuple(edges)), colors, k)


@dataclass(frozen=True)
class GridLayout:
    """Id maps and structural facts for one generated grid instance."""

    instance: Instance
    colored: ColoredGraph
    out_vertex: Mapping[tuple[int, int], int]
    row_entry: Mapping[tuple[int, int], int]  # splitter a row path uses into cell (i, j)
    col_entry: Mapping[tuple[int, int], int]  # splitter a column path uses into cell (i, j)
    merged_cells: frozenset
    row_boundary: Mapping[int, tuple[int, int]]  # row i -> (entry, exit) boundary ids
    col_boundary: Mapping[int, tuple[int, int]]
    demand_endpoints: Mapping[tuple[int, str], tuple[int, int]]  # (color, 'h'|'v')
    demand_index: Mapping[tuple[int, str], int]
    common_distance: int

    def row_path_vertices(self, color: int, row: int) -> tuple[int, ...]:
        n = self.colored.graph.vertex_count
        s, t = self.demand_endpoints[(color, "h")]
        cells = [(row, j) for j in range(1, n + 1)]
        return (s, *_track(self.row_boundary[row], self.row_entry, self.out_vertex, cells), t)

    def col_path_vertices(self, color: int, col: int) -> tuple[int, ...]:
        n = self.colored.graph.vertex_count
        s, t = self.demand_endpoints[(color, "v")]
        cells = [(i, col) for i in range(1, n + 1)]
        return (s, *_track(self.col_boundary[col], self.col_entry, self.out_vertex, cells), t)


def _track(
    boundary: Sequence[int],
    entry: Mapping[tuple[int, int], int],
    out_vertex: Mapping[tuple[int, int], int],
    cells: Sequence[tuple[int, int]],
) -> tuple[int, ...]:
    """One row or column of the grid: its entry, each cell's splitter and out vertex, its exit."""
    vertices = [boundary[0]]
    for cell in cells:
        vertices += [entry[cell], out_vertex[cell]]
    vertices.append(boundary[1])
    return tuple(vertices)


def _chain(edges: dict[tuple[int, int], int], vertices: Sequence[int]) -> None:
    """Add a unit arc between each consecutive pair; an arc already added keeps its place."""
    for u, v in zip(vertices, vertices[1:]):
        edges.setdefault((u, v), 1)


def mcc_to_planar_edsp(cg: ColoredGraph, k: int) -> tuple[Instance, GridLayout]:
    """Build the edge-mode grid instance for a colored graph with k colors.

    Requires vertices sorted by color. The n-by-n grid is directed left to
    right and top to bottom, every edge is split by an entry vertex, and the
    two entry vertices of an off-diagonal cell (i, j) are merged unless the
    underlying vertices differ in color and are adjacent. Per color there is
    one horizontal and one vertical demand; all 2k demands have the same
    shortest distance 2n + 3 under unit weights. Congestion is 1 in edge
    mode. The layout maps grid coordinates to vertex ids.
    """
    if k != cg.color_count:
        raise InvariantViolation("color count disagrees with the colored graph")
    n = cg.graph.vertex_count
    if list(cg.colors) != sorted(cg.colors):
        raise InvariantViolation("vertices must be sorted by color")
    for color in range(1, k + 1):
        if not cg.color_class(color):
            raise ColorMissing(f"color {color} has no vertices")

    next_id = 1

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    demand_endpoints: dict[tuple[int, str], tuple[int, int]] = {}
    source_of = {}
    for color in range(1, k + 1):
        source_of[(color, "h")] = fresh()
        source_of[(color, "v")] = fresh()
    row_boundary: dict[int, list[int]] = {}
    col_boundary: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        row_boundary[i] = [fresh()]
    for j in range(1, n + 1):
        col_boundary[j] = [fresh()]

    out_vertex: dict[tuple[int, int], int] = {}
    row_entry: dict[tuple[int, int], int] = {}
    col_entry: dict[tuple[int, int], int] = {}
    merged_cells = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and not (
                cg.color_of(i) != cg.color_of(j) and cg.graph.has_edge(i, j)
            ):
                shared = fresh()
                row_entry[(i, j)] = shared
                col_entry[(i, j)] = shared
                merged_cells.add((i, j))
            else:
                row_entry[(i, j)] = fresh()
                col_entry[(i, j)] = fresh()
            out_vertex[(i, j)] = fresh()

    for i in range(1, n + 1):
        row_boundary[i].append(fresh())
    for j in range(1, n + 1):
        col_boundary[j].append(fresh())
    target_of = {}
    for color in range(1, k + 1):
        target_of[(color, "h")] = fresh()
        target_of[(color, "v")] = fresh()

    edges: dict[tuple[int, int], int] = {}

    def arc(u: int, v: int) -> None:
        edges.setdefault((u, v), 1)

    for i in range(1, n + 1):
        color = cg.color_of(i)
        arc(source_of[(color, "h")], row_boundary[i][0])
        arc(source_of[(color, "v")], col_boundary[i][0])
        arc(row_boundary[i][1], target_of[(color, "h")])
        arc(col_boundary[i][1], target_of[(color, "v")])
    for i in range(1, n + 1):
        _chain(edges, _track(row_boundary[i], row_entry, out_vertex,
                             [(i, j) for j in range(1, n + 1)]))
    for j in range(1, n + 1):
        _chain(edges, _track(col_boundary[j], col_entry, out_vertex,
                             [(i, j) for i in range(1, n + 1)]))

    dag = Dag(next_id - 1, tuple((u, v, w) for (u, v), w in edges.items()))
    demands = []
    demand_index = {}
    for color in range(1, k + 1):
        for direction in ("h", "v"):
            demand_endpoints[(color, direction)] = (
                source_of[(color, direction)],
                target_of[(color, direction)],
            )
            demand_index[(color, direction)] = len(demands)
            demands.append(demand_endpoints[(color, direction)])
    instance = Instance(dag, tuple(demands), 1, EDGE)

    distances = {dag.dist_from(s, t)[t] for s, t in demands}
    assert distances == {2 * n + 3}, "demand distances drifted from 2n + 3"

    layout = GridLayout(
        instance=instance,
        colored=cg,
        out_vertex=out_vertex,
        row_entry=row_entry,
        col_entry=col_entry,
        merged_cells=frozenset(merged_cells),
        row_boundary={i: tuple(v) for i, v in row_boundary.items()},
        col_boundary={j: tuple(v) for j, v in col_boundary.items()},
        demand_endpoints=demand_endpoints,
        demand_index=demand_index,
        common_distance=2 * n + 3,
    )
    return instance, layout


def find_colorful_clique(cg: ColoredGraph, k: int) -> tuple[int, ...] | None:
    """The lexicographically first pick of one vertex per color, pairwise adjacent, or None."""
    classes = [cg.color_class(color) for color in range(1, k + 1)]
    if any(not cls for cls in classes):
        return None
    has_edge = cg.graph.has_edge
    chosen = backtrack(classes, lambda chosen, v: all(has_edge(u, v) for u in chosen))
    return None if chosen is None else tuple(chosen)


# ---------------------------------------------------------------------------
# Partitioned subgraph isomorphism via subdivided path blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiLayout:
    """Id maps and demand bookkeeping for one generated block instance."""

    instance: Instance
    pattern: PatternGraph
    host: HostGraph
    congestion: int
    upper_main: Mapping[tuple[int, int], int]  # (block, j) for j in 0..n_i
    upper_sub: Mapping[tuple[int, int, int], int]  # (block, j, l)
    lower_main: Mapping[tuple[int, int], int]
    lower_sub: Mapping[tuple[int, int, int], int]
    edge_source: Mapping[int, int]  # pattern edge index (1-based) -> id
    edge_target: Mapping[int, int]
    demand_index: Mapping[tuple, int]  # ("upper", i, copy) / ("lower", i, copy) / ("cross", i) / ("edge", l)

    def upper_spine(self, block: int) -> tuple[int, ...]:
        return _spine(self.upper_main, self.upper_sub, block,
                      self.host.class_sizes[block - 1], self.pattern.edge_count)

    def lower_spine(self, block: int) -> tuple[int, ...]:
        return _spine(self.lower_main, self.lower_sub, block,
                      self.host.class_sizes[block - 1], self.pattern.edge_count)

    def cross_path(self, block: int, window: int) -> tuple[int, ...]:
        """Upper spine up to the window, one drop, lower spine to the end."""
        upper = self.upper_spine(block)
        lower = self.lower_spine(block)
        drop_from = upper.index(self.upper_main[(block, window - 1)])
        resume_at = lower.index(self.lower_main[(block, window)])
        return upper[:drop_from + 1] + lower[resume_at:]


def _spine(
    main: Mapping[tuple[int, int], int],
    sub: Mapping[tuple[int, int, int], int],
    block: int,
    size: int,
    k: int,
) -> tuple[int, ...]:
    """One tier of a block: main vertex 0, then per member j its k subdivisions and main vertex j."""
    vertices = [main[(block, 0)]]
    for j in range(1, size + 1):
        vertices += [sub[(block, j, l)] for l in range(1, k + 1)]
        vertices.append(main[(block, j)])
    return tuple(vertices)


def psi_to_dspc(pattern: PatternGraph, host: HostGraph, c: int) -> tuple[Instance, PsiLayout]:
    """Build the vertex-mode block instance for a pattern, host, and budget c.

    Each block carries c - 1 copies of its upper and lower blocking demand
    plus one cross demand; each pattern edge contributes one linking demand
    whose shortest distance is exactly 5. All weights are 1. The demand
    count is h * (2 * (c - 1) + 1) + k.
    """
    if c < 1:
        raise InvariantViolation("congestion must be at least 1")
    h = pattern.vertex_count
    if len(host.class_sizes) != h:
        raise InvariantViolation("host needs one class per pattern vertex")
    k = pattern.edge_count

    next_id = 1

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    edge_source = {l: fresh() for l in range(1, k + 1)}

    upper_main: dict[tuple[int, int], int] = {}
    upper_sub: dict[tuple[int, int, int], int] = {}
    lower_main: dict[tuple[int, int], int] = {}
    lower_sub: dict[tuple[int, int, int], int] = {}
    for i in range(1, h + 1):
        size = host.class_sizes[i - 1]
        for main, sub in ((upper_main, upper_sub), (lower_main, lower_sub)):
            main[(i, 0)] = fresh()
            for j in range(1, size + 1):
                for l in range(1, k + 1):
                    sub[(i, j, l)] = fresh()
                main[(i, j)] = fresh()

    edge_target = {l: fresh() for l in range(1, k + 1)}

    edges: dict[tuple[int, int], int] = {}

    def arc(u: int, v: int) -> None:
        edges.setdefault((u, v), 1)

    for i in range(1, h + 1):
        size = host.class_sizes[i - 1]
        _chain(edges, _spine(upper_main, upper_sub, i, size, k))
        _chain(edges, _spine(lower_main, lower_sub, i, size, k))
        for j in range(1, size + 1):
            arc(upper_main[(i, j - 1)], lower_main[(i, j)])
            for l in range(1, k + 1):
                arc(upper_sub[(i, j, l)], lower_sub[(i, j, l)])

    for l, (i1, i2) in enumerate(pattern.edges, start=1):
        for (ca, ja), (cb, jb) in host.edges:
            if (ca, cb) != (i1, i2):
                continue
            arc(edge_source[l], upper_sub[(i1, ja, l)])
            arc(lower_sub[(i1, ja, l)], upper_sub[(i2, jb, l)])
            arc(lower_sub[(i2, jb, l)], edge_target[l])

    dag = Dag(next_id - 1, tuple((u, v, w) for (u, v), w in edges.items()))
    expected_vertices = sum(
        2 * (size + 1 + k * size) for size in host.class_sizes
    ) + 2 * k
    assert dag.vertex_count == expected_vertices, "block construction size drifted"

    demands = []
    demand_index: dict[tuple, int] = {}
    for i in range(1, h + 1):
        size = host.class_sizes[i - 1]
        for copy in range(c - 1):
            demand_index[("upper", i, copy)] = len(demands)
            demands.append((upper_main[(i, 0)], upper_main[(i, size)]))
        for copy in range(c - 1):
            demand_index[("lower", i, copy)] = len(demands)
            demands.append((lower_main[(i, 0)], lower_main[(i, size)]))
        demand_index[("cross", i)] = len(demands)
        demands.append((upper_main[(i, 0)], lower_main[(i, size)]))
    for l in range(1, k + 1):
        demand_index[("edge", l)] = len(demands)
        demands.append((edge_source[l], edge_target[l]))
    assert len(demands) == h * (2 * (c - 1) + 1) + k

    instance = Instance(dag, tuple(demands), c, VERTEX)
    layout = PsiLayout(
        instance=instance,
        pattern=pattern,
        host=host,
        congestion=c,
        upper_main=upper_main,
        upper_sub=upper_sub,
        lower_main=lower_main,
        lower_sub=lower_sub,
        edge_source=edge_source,
        edge_target=edge_target,
        demand_index=demand_index,
    )
    return instance, layout


def find_homomorphism(pattern: PatternGraph, host: HostGraph) -> tuple[int, ...] | None:
    """The lexicographically first host member per class realizing every pattern edge, or None."""
    h = pattern.vertex_count
    incident: list[list[int]] = [[] for _ in range(h + 1)]
    for a, b in pattern.edges:
        incident[b].append(a)  # side B comes after side A in the class order

    def fits(chosen: list[int], j: int) -> bool:
        i = len(chosen) + 1
        return all(host.has_edge((a, chosen[a - 1]), (i, j)) for a in incident[i])

    chosen = backtrack([range(1, host.class_sizes[i] + 1) for i in range(h)], fits)
    return None if chosen is None else tuple(chosen)


# ---------------------------------------------------------------------------
# Witness-driven routings
# ---------------------------------------------------------------------------


def expected_routing_from_witness(layout, witness: tuple) -> Solution:
    """Route all demands of a generated instance along a planted witness.

    For a grid layout the witness is ("clique", vertices); for a block
    layout it is ("homomorphism", members). The routing is verified against
    the generated instance before being returned; an invalid witness raises
    WitnessInvalid.
    """
    if isinstance(layout, GridLayout):
        return _grid_routing(layout, witness)
    if isinstance(layout, PsiLayout):
        return _block_routing(layout, witness)
    raise InvariantViolation(f"unknown layout type {type(layout).__name__}")


def _grid_routing(layout: GridLayout, witness: tuple) -> Solution:
    kind, vertices = witness
    cg = layout.colored
    k = cg.color_count
    if kind != "clique" or len(vertices) != k:
        raise WitnessInvalid("expected a clique witness with one vertex per color")
    for position, v in enumerate(vertices, start=1):
        if not (1 <= v <= cg.graph.vertex_count) or cg.color_of(v) != position:
            raise WitnessInvalid(f"witness vertex {v} does not carry color {position}")
    for u, v in combinations(vertices, 2):
        if not cg.graph.has_edge(u, v):
            raise WitnessInvalid(f"witness vertices {u} and {v} are not adjacent")

    dag = layout.instance.dag
    paths: list[Path | None] = [None] * layout.instance.k
    for color, v in enumerate(vertices, start=1):
        row = Path.trace(dag, layout.row_path_vertices(color, v))
        col = Path.trace(dag, layout.col_path_vertices(color, v))
        paths[layout.demand_index[(color, "h")]] = row
        paths[layout.demand_index[(color, "v")]] = col
    solution = Solution(tuple(paths))
    report = verify_solution(layout.instance, solution)
    assert report.feasible, f"planted clique routing must verify: {report.violations}"
    return solution


def _block_routing(layout: PsiLayout, witness: tuple) -> Solution:
    kind, members = witness
    pattern, host = layout.pattern, layout.host
    if kind != "homomorphism" or len(members) != pattern.vertex_count:
        raise WitnessInvalid("expected a homomorphism witness with one member per class")
    for i, j in enumerate(members, start=1):
        if not (1 <= j <= host.class_sizes[i - 1]):
            raise WitnessInvalid(f"witness member ({i},{j}) out of range")
    for i1, i2 in pattern.edges:
        if not host.has_edge((i1, members[i1 - 1]), (i2, members[i2 - 1])):
            raise WitnessInvalid(
                f"witness does not realize pattern edge ({i1},{i2}) in the host"
            )

    dag = layout.instance.dag
    paths: list[Path | None] = [None] * layout.instance.k
    for i in range(1, pattern.vertex_count + 1):
        upper = Path.trace(dag, layout.upper_spine(i))
        lower = Path.trace(dag, layout.lower_spine(i))
        for copy in range(layout.congestion - 1):
            paths[layout.demand_index[("upper", i, copy)]] = upper
            paths[layout.demand_index[("lower", i, copy)]] = lower
        cross = Path.trace(dag, layout.cross_path(i, members[i - 1]))
        paths[layout.demand_index[("cross", i)]] = cross
    for l, (i1, i2) in enumerate(pattern.edges, start=1):
        j1, j2 = members[i1 - 1], members[i2 - 1]
        vertices = (
            layout.edge_source[l],
            layout.upper_sub[(i1, j1, l)],
            layout.lower_sub[(i1, j1, l)],
            layout.upper_sub[(i2, j2, l)],
            layout.lower_sub[(i2, j2, l)],
            layout.edge_target[l],
        )
        paths[layout.demand_index[("edge", l)]] = Path.trace(dag, vertices)
    solution = Solution(tuple(paths))
    report = verify_solution(layout.instance, solution)
    assert report.feasible, f"planted homomorphism routing must verify: {report.violations}"
    return solution


# ---------------------------------------------------------------------------
# Seeded random inputs for both families
# ---------------------------------------------------------------------------


def random_colored_graph(
    rng: random.Random, n: int, k: int, edge_prob: float = 0.5
) -> ColoredGraph:
    """A random colored graph with every color present and colors ascending."""
    if n < k:
        raise InvariantViolation("need at least one vertex per color")
    sizes = [1] * k
    for _ in range(n - k):
        sizes[rng.randrange(k)] += 1
    colors = tuple(color for color in range(1, k + 1) for _ in range(sizes[color - 1]))
    edges = tuple(
        (u, v)
        for u, v in combinations(range(1, n + 1), 2)
        if rng.random() < edge_prob
    )
    return ColoredGraph(UndirectedGraph(n, edges), colors, k)


def plant_colorful_clique(rng: random.Random, cg: ColoredGraph) -> tuple[ColoredGraph, tuple[int, ...]]:
    """Add the edges of a random one-per-color clique to a colored graph."""
    picked = tuple(
        rng.choice(cg.color_class(color)) for color in range(1, cg.color_count + 1)
    )
    extra = [
        (u, v) if u < v else (v, u)
        for u, v in combinations(picked, 2)
        if not cg.graph.has_edge(u, v)
    ]
    graph = UndirectedGraph(cg.graph.vertex_count, cg.graph.edges + tuple(extra))
    return ColoredGraph(graph, cg.colors, cg.color_count), picked


def random_host(
    rng: random.Random,
    pattern: PatternGraph,
    class_sizes: Sequence[int],
    edge_prob: float = 0.5,
    plant: bool = True,
) -> tuple[HostGraph, tuple[int, ...] | None]:
    """A random host over the pattern's classes, optionally with a planted witness.

    Host edges are only generated between classes joined by a pattern edge
    (edges elsewhere never matter to the construction). With ``plant`` a
    random member per class is wired to realize every pattern edge.
    """
    class_sizes = tuple(class_sizes)
    edges = set()
    for i1, i2 in pattern.edges:
        for j1 in range(1, class_sizes[i1 - 1] + 1):
            for j2 in range(1, class_sizes[i2 - 1] + 1):
                if rng.random() < edge_prob:
                    edges.add(((i1, j1), (i2, j2)))
    witness = None
    if plant:
        witness = tuple(rng.randint(1, size) for size in class_sizes)
        for i1, i2 in pattern.edges:
            edges.add(((i1, witness[i1 - 1]), (i2, witness[i2 - 1])))
    host = HostGraph(class_sizes, tuple(sorted(edges)))
    return host, witness
