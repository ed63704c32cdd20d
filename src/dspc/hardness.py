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

Both generators take vertex ids and unit arcs from one builder
(``_Builder``), and return the instance together with a layout object that
maps construction coordinates to vertex ids. Each layout routes a planted
witness itself (``GridLayout.routing``, ``PsiLayout.routing``) and verifies
the routing before returning it. Each grid row and column is stored as its
vertex tuple, built while ids are handed out, and each block tier takes
consecutive ids along its spine; the generators chain their arcs along
those same vertex sequences. The graphs carry nothing beyond their vertex
count and edges.

Both source problems ask for one vertex per class, with given pairs of
classes adjacent, and both read one model, a ``ColoredGraph``: in the grid
family a color is a clique slot, and in the block family color i is the
class of pattern vertex i, whose member j is its j-th vertex in id order.
``find_colorful_clique`` and ``find_homomorphism`` decide them apart from
any routing through one pick search (``_pick``) over ``core.backtrack``, so
no color count or pattern size reaches the recursion limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
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

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """``classes[i - 1]`` holds the vertices of color i in id order."""
        classes: list[list[int]] = [[] for _ in range(self.color_count)]
        for v, color in enumerate(self.colors, start=1):
            classes[color - 1].append(v)
        return tuple(map(tuple, classes))

    def color_class(self, color: int) -> tuple[int, ...]:
        return self.classes[color - 1] if 1 <= color <= self.color_count else ()


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
    """The rows and columns of one generated grid instance, and its demand order."""

    instance: Instance
    colored: ColoredGraph
    # row i (column j): its entry, each cell's splitter and out vertex, its exit
    rows: Mapping[int, tuple[int, ...]]
    cols: Mapping[int, tuple[int, ...]]
    merged_cells: frozenset
    demand_index: Mapping[tuple[int, str], int]  # (color, 'h'|'v')

    def row_path_vertices(self, color: int, row: int) -> tuple[int, ...]:
        s, t = self.instance.demands[self.demand_index[(color, "h")]]
        return (s, *self.rows[row], t)

    def col_path_vertices(self, color: int, col: int) -> tuple[int, ...]:
        s, t = self.instance.demands[self.demand_index[(color, "v")]]
        return (s, *self.cols[col], t)

    def routing(self, clique: Sequence[int]) -> Solution:
        """Route color i's two demands along row and column ``clique[i - 1]``.

        The clique must pick one vertex per color, in color order, pairwise
        adjacent; otherwise WitnessInvalid.
        """
        cg = self.colored
        if len(clique) != cg.color_count:
            raise WitnessInvalid("expected a clique witness with one vertex per color")
        for position, v in enumerate(clique, start=1):
            if not (1 <= v <= cg.graph.vertex_count) or cg.color_of(v) != position:
                raise WitnessInvalid(f"witness vertex {v} does not carry color {position}")
        for u, v in combinations(clique, 2):
            if not cg.graph.has_edge(u, v):
                raise WitnessInvalid(f"witness vertices {u} and {v} are not adjacent")
        walks = []
        for color, direction in self.demand_index:
            v = clique[color - 1]
            walks.append(self.row_path_vertices(color, v) if direction == "h"
                         else self.col_path_vertices(color, v))
        return _verified(self.instance, walks)


class _Builder:
    """Hands out vertex ids 1, 2, ... and collects unit arcs in first-added order."""

    def __init__(self) -> None:
        self.count = 0
        self.arcs: dict[tuple[int, int], None] = {}

    def fresh(self) -> int:
        self.count += 1
        return self.count

    def chain(self, *vertices: int) -> None:
        """Add an arc between each consecutive pair; an arc already added keeps its place."""
        arcs = self.arcs
        for arc in zip(vertices, vertices[1:]):
            arcs[arc] = None

    def dag(self) -> Dag:
        return Dag(self.count, tuple((u, v, 1) for u, v in self.arcs))


def _verified(instance: Instance, walks: Sequence[Sequence[int]]) -> Solution:
    """The routing along one vertex walk per demand, verified against the instance."""
    solution = Solution(tuple(Path.trace(instance.dag, walk) for walk in walks))
    report = verify_solution(instance, solution)
    if not report.feasible:
        raise InvariantViolation(f"planted witness routing must verify: {report.violations}")
    return solution


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

    b = _Builder()
    sources = {(color, direction): b.fresh() for color in range(1, k + 1) for direction in "hv"}
    rows = {i: [b.fresh()] for i in range(1, n + 1)}
    cols = {j: [b.fresh()] for j in range(1, n + 1)}
    merged_cells = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entry = b.fresh()
            if i != j and not (cg.color_of(i) != cg.color_of(j) and cg.graph.has_edge(i, j)):
                merged_cells.add((i, j))  # the row and the column share one splitter
                cols[j].append(entry)
            else:
                cols[j].append(b.fresh())
            rows[i].append(entry)
            out = b.fresh()
            rows[i].append(out)
            cols[j].append(out)
    for track in (*rows.values(), *cols.values()):
        track.append(b.fresh())
    targets = {key: b.fresh() for key in sources}

    for i in range(1, n + 1):
        color = cg.color_of(i)
        b.chain(sources[(color, "h")], rows[i][0])
        b.chain(sources[(color, "v")], cols[i][0])
        b.chain(rows[i][-1], targets[(color, "h")])
        b.chain(cols[i][-1], targets[(color, "v")])
    for track in (*rows.values(), *cols.values()):
        b.chain(*track)

    dag = b.dag()
    demands = tuple((sources[key], targets[key]) for key in sources)
    instance = Instance(dag, demands, 1, EDGE)
    distances = {dag.dist_from(s, t)[t] for s, t in demands}
    if distances != {2 * n + 3}:
        raise InvariantViolation("demand distances drifted from 2n + 3")

    layout = GridLayout(
        instance=instance,
        colored=cg,
        rows={i: tuple(track) for i, track in rows.items()},
        cols={j: tuple(track) for j, track in cols.items()},
        merged_cells=frozenset(merged_cells),
        demand_index={key: index for index, key in enumerate(sources)},
    )
    return instance, layout


def _pick(cg: ColoredGraph, needs: Sequence[Sequence[int]]) -> list[int] | None:
    """The lexicographically first vertex of each color 1..len(needs), or None.

    The pick for color i + 1 must be adjacent to the pick of every earlier
    color whose index ``needs[i]`` lists. Both source problems are this search.
    """
    slots = [cg.color_class(color) for color in range(1, len(needs) + 1)]
    if not all(slots):
        return None
    has_edge = cg.graph.has_edge
    return backtrack(
        slots, lambda chosen, v: all(has_edge(chosen[a], v) for a in needs[len(chosen)]))


def find_colorful_clique(cg: ColoredGraph, k: int) -> tuple[int, ...] | None:
    """The lexicographically first pick of one vertex per color, pairwise adjacent, or None."""
    chosen = _pick(cg, [range(i) for i in range(k)])
    return None if chosen is None else tuple(chosen)


# ---------------------------------------------------------------------------
# Partitioned subgraph isomorphism via subdivided path blocks
# ---------------------------------------------------------------------------


_TIERS = ("upper", "lower")


@dataclass(frozen=True)
class PsiLayout:
    """Id maps and demand order for one generated block instance."""

    instance: Instance
    pattern: PatternGraph
    host: ColoredGraph  # color i is pattern class i
    main: Mapping[tuple[str, int, int], int]  # (tier, block, j) for j in 0..n_i
    sub: Mapping[tuple[str, int, int, int], int]  # (tier, block, j, l)
    demand_index: Mapping[tuple, int]  # (tier, i, copy) / ("cross", i) / ("edge", l)

    def spine(self, tier: str, block: int) -> tuple[int, ...]:
        """Main vertex 0, then per member j its subdivisions 1..k and main vertex j.

        A tier's ids are handed out consecutively in this order, so its
        spine is the id range from main vertex 0 to the last main vertex.
        """
        size = len(self.host.classes[block - 1])
        return tuple(range(self.main[(tier, block, 0)], self.main[(tier, block, size)] + 1))

    def routing(self, members: Sequence[int]) -> Solution:
        """Route every demand through host member ``members[i - 1]`` of each class i.

        Blocking demands take their spine, a cross demand drops from the
        upper to the lower spine at its member's window, and a linking
        demand threads the subdivisions of its two members. The members
        must realize every pattern edge in the host; otherwise WitnessInvalid.
        """
        pattern, host = self.pattern, self.host
        if len(members) != pattern.vertex_count:
            raise WitnessInvalid("expected a homomorphism witness with one member per class")
        for i, j in enumerate(members, start=1):
            if not (1 <= j <= len(host.classes[i - 1])):
                raise WitnessInvalid(f"witness member ({i},{j}) out of range")
        picked = [cls[j - 1] for cls, j in zip(host.classes, members)]
        for i1, i2 in pattern.edges:
            if not host.graph.has_edge(picked[i1 - 1], picked[i2 - 1]):
                raise WitnessInvalid(
                    f"witness does not realize pattern edge ({i1},{i2}) in the host"
                )

        step = pattern.edge_count + 1  # main vertex j sits at spine position j * step
        walks = []
        for (kind, index, *_), (s, t) in zip(self.demand_index, self.instance.demands):
            if kind == "edge":
                walks.append((
                    s,
                    *(self.sub[(tier, i, members[i - 1], index)]
                      for i in pattern.edges[index - 1] for tier in _TIERS),
                    t,
                ))
            elif kind == "cross":
                window = members[index - 1]
                walks.append(self.spine("upper", index)[:(window - 1) * step + 1]
                             + self.spine("lower", index)[window * step:])
            else:
                walks.append(self.spine(kind, index))
        return _verified(self.instance, walks)


def psi_to_dspc(pattern: PatternGraph, host: ColoredGraph, c: int) -> tuple[Instance, PsiLayout]:
    """Build the vertex-mode block instance for a pattern, host, and budget c.

    Color i of the host is the class of pattern vertex i, and member j of
    that class is its j-th vertex in id order; edges inside one class are
    ignored. Each block carries c - 1 copies of its upper and lower blocking
    demand plus one cross demand; each pattern edge contributes one linking
    demand whose shortest distance is exactly 5. All weights are 1. The
    demand count is h * (2 * (c - 1) + 1) + k.
    """
    if c < 1:
        raise InvariantViolation("congestion must be at least 1")
    h = pattern.vertex_count
    sizes = [len(members) for members in host.classes]
    if len(sizes) != h:
        raise InvariantViolation("host needs one color per pattern vertex")
    if 0 in sizes:
        raise InvariantViolation("every host class needs at least one member")
    k = pattern.edge_count

    b = _Builder()
    edge_source = {l: b.fresh() for l in range(1, k + 1)}
    main: dict[tuple[str, int, int], int] = {}
    sub: dict[tuple[str, int, int, int], int] = {}
    for i, size in enumerate(sizes, start=1):
        for tier in _TIERS:
            main[(tier, i, 0)] = b.fresh()
            for j in range(1, size + 1):
                for l in range(1, k + 1):
                    sub[(tier, i, j, l)] = b.fresh()
                main[(tier, i, j)] = b.fresh()
            b.chain(*range(main[(tier, i, 0)], b.count + 1))  # its ids run along the spine
        for j in range(1, size + 1):
            b.chain(main[("upper", i, j - 1)], main[("lower", i, j)])
            for l in range(1, k + 1):
                b.chain(sub[("upper", i, j, l)], sub[("lower", i, j, l)])
    edge_target = {l: b.fresh() for l in range(1, k + 1)}

    member = {v: j for members in host.classes for j, v in enumerate(members, start=1)}
    links = [sorted((host.color_of(v), member[v]) for v in edge) for edge in host.graph.edges]
    for l, (i1, i2) in enumerate(pattern.edges, start=1):
        for (ca, ja), (cb, jb) in links:
            if (ca, cb) == (i1, i2):
                b.chain(edge_source[l], sub[("upper", i1, ja, l)])
                b.chain(sub[("lower", i1, ja, l)], sub[("upper", i2, jb, l)])
                b.chain(sub[("lower", i2, jb, l)], edge_target[l])

    dag = b.dag()
    if dag.vertex_count != sum(2 * (size + 1 + k * size) for size in sizes) + 2 * k:
        raise InvariantViolation("block construction size drifted")

    demands = []
    demand_index: dict[tuple, int] = {}
    for i, size in enumerate(sizes, start=1):
        for tier in _TIERS:
            for copy in range(c - 1):
                demand_index[(tier, i, copy)] = len(demands)
                demands.append((main[(tier, i, 0)], main[(tier, i, size)]))
        demand_index[("cross", i)] = len(demands)
        demands.append((main[("upper", i, 0)], main[("lower", i, size)]))
    for l in range(1, k + 1):
        demand_index[("edge", l)] = len(demands)
        demands.append((edge_source[l], edge_target[l]))
    if len(demands) != h * (2 * (c - 1) + 1) + k:
        raise InvariantViolation("block demand count drifted")

    instance = Instance(dag, tuple(demands), c, VERTEX)
    layout = PsiLayout(
        instance=instance,
        pattern=pattern,
        host=host,
        main=main,
        sub=sub,
        demand_index=demand_index,
    )
    return instance, layout


def find_homomorphism(pattern: PatternGraph, host: ColoredGraph) -> tuple[int, ...] | None:
    """The lexicographically first host member per class realizing every pattern edge, or None.

    Member j of class i is the j-th vertex of color i in id order.
    """
    needs: list[list[int]] = [[] for _ in range(pattern.vertex_count)]
    for a, b in pattern.edges:
        needs[b - 1].append(a - 1)  # side B comes after side A in the class order
    chosen = _pick(host, needs)
    if chosen is None:
        return None
    return tuple(members.index(v) + 1 for members, v in zip(host.classes, chosen))


# ---------------------------------------------------------------------------
# Seeded random inputs for both families
# ---------------------------------------------------------------------------


def random_colored_graph(
    rng: random.Random, n: int, k: int, edge_prob: float = 0.5
) -> ColoredGraph:
    """A random colored graph with every color present and colors ascending."""
    if k < 1:
        raise InvariantViolation(f"need at least one color, got {k}")
    if n < k:
        raise InvariantViolation("need at least one vertex per color")
    if not 0 <= edge_prob <= 1:
        raise InvariantViolation(f"edge probability must lie in [0, 1], got {edge_prob}")
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
    """Add the edges of a random one-per-color clique to a colored graph.

    A color with no vertices raises ColorMissing before anything is drawn.
    """
    for color, members in enumerate(cg.classes, start=1):
        if not members:
            raise ColorMissing(f"color {color} has no vertices")
    picked = tuple(rng.choice(members) for members in cg.classes)
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
) -> tuple[ColoredGraph, tuple[int, ...] | None]:
    """A random host over the pattern's classes, optionally with a planted witness.

    Class i is color i, and its members take consecutive ids, class by
    class. Host edges are only generated between classes joined by a
    pattern edge (edges elsewhere never matter to the construction). With
    ``plant`` a random member per class is wired to realize every pattern edge.
    """
    class_sizes = tuple(class_sizes)
    if len(class_sizes) != pattern.vertex_count:
        raise InvariantViolation("host needs one class size per pattern vertex")
    if any(size < 1 for size in class_sizes):
        raise InvariantViolation("every host class needs at least one member")
    if not 0 <= edge_prob <= 1:
        raise InvariantViolation(f"edge probability must lie in [0, 1], got {edge_prob}")
    colors = tuple(i for i, size in enumerate(class_sizes, start=1) for _ in range(size))
    before = tuple(accumulate(class_sizes, initial=0))  # member j of class i is before[i - 1] + j
    edges = set()
    for i1, i2 in pattern.edges:
        for j1 in range(1, class_sizes[i1 - 1] + 1):
            for j2 in range(1, class_sizes[i2 - 1] + 1):
                if rng.random() < edge_prob:
                    edges.add((before[i1 - 1] + j1, before[i2 - 1] + j2))
    witness = None
    if plant:
        witness = tuple(rng.randint(1, size) for size in class_sizes)
        for i1, i2 in pattern.edges:
            edges.add((before[i1 - 1] + witness[i1 - 1], before[i2 - 1] + witness[i2 - 1]))
    graph = UndirectedGraph(len(colors), tuple(sorted(edges)))
    return ColoredGraph(graph, colors, len(class_sizes)), witness
