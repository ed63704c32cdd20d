"""Exact shortest-path routing with vertex or edge congestion c on DAGs, plus a brute-force oracle.

The solver is a pebbling search in the manner of Fortune, Hopcroft and
Wyllie (TCS 10, 1980), and it decides one ``Instance``: its demands, its
budget c and its mode. One pebble per demand (s, t) starts on s and is
finished once it rests on t. A move takes the unfinished pebbles on the
vertex u that holds any and comes first in the search's sweep order (see
below), and advances each of them along an edge (u, v, w) that is tight
for its own demand: f[u] + w + b[v] = dist(s, t), with f = dist(s, .) and
b = dist(., t). A pebble that reached u along tight edges has
f[u] = dist(s, t) - b[u], so the test reads w + b[v] = b[u] and needs only
one backward sweep per terminal, which stops at the terminal's earliest
source in topological order: no pebble is ever before its source. The
walks of a pebble are then exactly the shortest s-to-t paths.

The sweep order is topological, so after a move every unfinished pebble
sits after u in it, and no pebble comes back to u: all pebbles that ever
visit a vertex are on it at the same time, and an edge is only taken in
the one move that leaves its tail. Loads are therefore counted exactly,
move by move: in vertex mode the pebbles on each head after the move,
resting and finished ones included, and in edge mode the movers that take
each edge. ``fitting_moves`` enumerates a state's moves depth first over
the movers, keeps a running load per element and cuts a prefix of the
movers' picks as soon as an element would pass c. It yields exactly the
moves that ``merge_check``, the check of one whole move and the tests'
reference, accepts, in lexicographic order, except that movers bound for
one terminal are interchangeable and take their edges in non-decreasing
order only: 30 such pebbles on a fork make 31 moves, not 2^30. No move
checks a source, so in vertex mode ``solve`` first rejects any vertex at
which more than c demands start or end. In edge mode it rejects a vertex at which more demands start
than c per out-edge, or end than c per in-edge. Congestion 1 is the
disjoint case of either mode.

First, one pass counts the demand windows [pos[s], pos[t]] over each
topological position, with a difference array in O(n + k). A demand whose
window meets at most c windows at each of its positions is uncontested and
takes its first tight walk (option 0 at every vertex) without a pebble;
``direct`` lists these. The step is exact and changes no output. Every
element a demand can load sits at a position of its window (a vertex, or an
edge at its tail), and only demands whose windows cover that position can
load it. So no element an uncontested demand can load ever passes c,
whatever any pin or pebble does, and the search's first routing gives it
option 0. A contested pebble on the same vertex with the same terminal is
inside the uncontested window from there on, so it takes option 0 too, and
the order kept between interchangeable movers never raises the uncontested
pebble's option.

Then ``solve`` pins every other demand whose route is forced and takes its
load off the budget, in the manner of unit propagation (Davis, Logemann and
Loveland, CACM 5, 1962): the forced demands first, then only what they
close. Each demand, in demand order, walks from s along its tight edges
while exactly one is tight. A walk that reaches t is the demand's only
shortest path, so every feasible routing takes it: it is pinned, or, when
an element (vertex or edge) on it is already at c, the instance is
infeasible. While no element is at c, every tight edge out of a reached
vertex leads on to t, so a demand whose walk meets a fork keeps two paths
and nothing more can be pinned. Only once an element is at c do the counted
rounds run. Each round counts every free demand's shortest paths, up to 2,
in one walk of its topological window along its tight edges, skipping every
element the pinned paths fill to c. A demand with one path left is pinned at
once, one with none makes the instance infeasible, and the rounds repeat
until one pins nothing. A pinned path runs over open elements only, so it
fits the budget. The pinned loads form a ``fixed`` map that every load count
adds, so the search moves only the pebbles left, none at k <= c. Pins only
close elements and counts only fall, and every pinned route is the same in
every feasible routing, so any order pins the same demands, and the routing
found is the one the search would find carrying every pebble; only on an
instance that the pass refutes can the order change which demand the reason
names, and which were pinned before it. The
direct loads stay out of ``fixed``, since no element they load can pass c;
so a forced demand with an uncontested window is direct, and its one path
is its first tight walk. In vertex mode a pinned path may run through the
source of a free pebble, which no move checks, so ``solve`` checks those
sources itself.

When pebbles remain after the pin pass, ``solve`` routes the free demands
by walks in turn. Each demand in demand order goes depth first along its
tight edges, in out-edge order, skipping every element already at c: the
pinned loads, in vertex mode every free demand's source and terminal, and
the walks routed so far. A vertex it leaves with no way on is dead for
that demand, so each tight edge is tried at most once, and the pass costs
O(k(n + m)). When every demand gets a walk, the walks are a valid routing,
and ``solve`` returns it with ``checked`` at 0, an empty memo and its own
debug line. When every free demand's first tight walk fits, the walks are
those first tight walks, since no walk loads one element twice, and they
are the routing the search returns: its first descent takes option 0 for
every mover at every move, every pebble that visits a vertex is on it when
the sweep reaches it, so the count at each arrival is at most the
element's load over all the walks, and no prefix is cut before the
all-zero pick. With one free demand the walk is always the search's first
routing: the search moves one pebble depth first over the same edges, in
the same order, and records the same dead vertices. With two or more, once
a first tight walk does not fit, the walks may route a feasible instance
differently from the search, since they fix each demand before looking at
the next, where the search advances every pebble along one sweep; both
routings are valid, and which one is printed stays deterministic.

When a demand gets no walk, an earlier walk may have taken its route, so
that proves nothing. First ``overloaded_cut`` tries to refute the instance,
from the graph and the demand windows in ``Dag.order`` alone: a vertex
that no edge jumps over and more than c windows hold (vertex mode), or a
gap between two positions that more than c windows per crossing edge span
(edge mode). The test is exact, so it changes no verdict and no routing:
the forced funnel below, and most infeasible bottleneck draws, are refuted
with no dead state, and at ``DSPC_LOG=debug`` the reason names the cut. It
cannot refute a routing the walks found, so a solve whose first pass
routes never runs it. It runs before the retries, which a refuted instance
would pay for in full. Then the walks are retried, each pass with the
demand that the pass before left without a walk moved to the front and the
others kept in their order, the net reordering of rip-up-and-reroute
routers. The retries stop at the first pass that routes every demand, when
the blocked demand is first already, or after k passes in all, k the free
demands, so they cost O(k^2 (n + m)). Each pass is a fixed function of the
one before, so the routing printed stays deterministic. Only when every
pass gives up does the search run; every routing a pass returns is valid,
so the verdict is the search's either way.

The search sweeps in its own topological order, ``sweep_order``, computed
once per solve and only when pebbles remain that neither the walks in turn
nor a cut decide: Kahn's rule with a stack in place of the smallest-id heap
of ``Dag.order``, so the heads a vertex makes ready come next, the head of
its first out-edge first. Under any topological order every pebble that
visits a vertex is on it at the same time, so the verdicts are the same
under every order; the order decides how many pebbles are in flight at
once, and so how many distinct states the memo sees (a narrow sweep
frontier is a small vertex separation, which equals path-width: Kinnersley,
IPL 42, 1992). The forced funnel s_i -> {a_i, b_i} -> z -> t_i with every
source numbered first, and an edge that jumps over z so that no cut refutes
it, takes 3 * 2^k - 3 dead states in ``Dag.order`` and 3k in this one. The
order can change which routing is found first, never whether one exists.
The demand windows, the direct walks, the pin pass and the distance sweeps
keep ``Dag.order``, so a solve that never reaches the search does not pay
for this order's O(n + m) pass.

A state is the tuple of pebble positions. Whether it can still be finished
depends only on the pairs (position, terminal), so the depth-first search
records each state whose moves all fail as dead and never expands it again.
Two budgets bound a solve, and running out of either raises LimitExceeded:
the memo holds at most ``MAX_DEAD_STATES`` states, and the search checks at
most ``MAX_MOVES_CHECKED`` moves, counting one per move that fits and one
per cut prefix. That is never more than the moves ``itertools.product``
over the movers' edges would make, and the search's count in the latest
solve is ``DisjointShortestSolver.checked``, 0 when no search runs. The
memo alone does not bound time: the m movers on a vertex can have up to
out-degree^m prefixes to try (when more movers than edges meet at c = 1,
say), and only in vertex mode is m at most c. No demand count is refused
up front. The search keeps its path in an explicit stack, one level per
move, so long graphs stay clear of the recursion limit. At
``DSPC_LOG=debug`` a solve that gets past the pin pass logs its pinned,
direct and searched demand counts, one that the walks in turn route the
demands they routed, and the pass when it is a retry, one that reaches the
search its dead states and moves checked, and an infeasible solve its
reason, on the ``dspc.exact`` logger.

``solve_with_congestion``, the solve with its routing checked again, is the
route of ``dspc solve``, the kernel's core solves and ``solve_edsp``.

The search reads a vertex's tight edges straight off its out-edges with
``_tight``, in out-edge order; the direct walks take the first of them with
``_first_walk``, and the pin pass and the walks in turn test each in
place, so none of those builds a list per vertex. The brute-force oracle
shares no search code with the solver; its path helpers keep their own
copy of the tightness test, so each reads one backward sweep.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, compress
from math import prod
from operator import sub
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .core import (
    INFINITY, Dag, Edge, Instance, Path, Solution, VERTEX, backtrack, verify_solution,
)
from .errors import InvariantViolation, LimitExceeded, OracleTooLarge, ProjectionInvalid

#: Dead states a solve may record before LimitExceeded; about 117 MB at 27 pebbles.
MAX_DEAD_STATES = 2**19
#: Moves a solve's search may check before LimitExceeded, one per fitting move or cut prefix.
MAX_MOVES_CHECKED = 2**20

#: One vertex per pebble, in demand order.
State = tuple[int, ...]

#: Paths pinned before the search, per element (vertex or edge); read only.
Load = Mapping[object, int]
#: The load when nothing is pinned.
NO_LOAD: Load = MappingProxyType({})

log = logging.getLogger(__name__)


@dataclass
class MemoStore:
    """Write-once record of at most ``MAX_DEAD_STATES`` states from which no moves finish."""

    entries: dict[State, None] = field(default_factory=dict)

    def put(self, state: State) -> None:
        if state in self.entries:
            raise InvariantViolation("memo entries are write-once")
        if len(self.entries) >= MAX_DEAD_STATES:
            raise LimitExceeded(f"search gave up after {MAX_DEAD_STATES} dead states")
        self.entries[state] = None


def _tight(edges: Sequence[Edge], b: Sequence[float], u: int) -> list[Edge]:
    """The edges (u, v, w) of ``edges`` with w + b[v] = b[u], b = dist(., t), in their order."""
    bu = b[u]
    return [e for e in edges if e[2] + b[e[1]] == bu]


def _first_walk(
    out: Sequence[Sequence[Edge]], b: Sequence[float], s: int, t: int
) -> tuple[int, ...]:
    """From s to t along each vertex u's first out-edge (u, v, w) with w + b[v] = b[u]."""
    walk, u = [s], s
    while u != t:
        bu = b[u]
        for _, v, w in out[u]:
            if w + b[v] == bu:
                break
        walk.append(v)
        u = v
    return tuple(walk)


def merge_check(
    state: State,
    movers: Sequence[int],
    edges: Sequence[Edge],
    congestion: int = 1,
    mode: str = VERTEX,
    fixed: Load = NO_LOAD,
) -> State | None:
    """Move pebble ``movers[j]`` along ``edges[j]``; the next state, or None over budget.

    In vertex mode a head's load is every pebble on it after the move,
    resting and finished ones included; in edge mode an edge's load is the
    number of movers that take it. Either load adds the ``fixed`` load of
    the paths pinned before the search (read only). Under the search's move
    order both counts are final, so accepting up to ``congestion`` on each
    is exact.
    """
    if not movers or len(movers) != len(edges):
        raise InvariantViolation("movers and edges disagree on size")
    nxt = list(state)
    for i, edge in zip(movers, edges):
        if state[i] != edge[0]:
            raise InvariantViolation(f"pebble {i} on vertex {state[i]} cannot take edge {edge}")
        nxt[i] = edge[1]
    pinned = fixed.get
    if mode == VERTEX:
        over = any(nxt.count(head) + pinned(head, 0) > congestion for _, head, _ in edges)
    else:
        over = any(edges.count(edge) + pinned(edge, 0) > congestion for edge in edges)
    return None if over else tuple(nxt)


def fitting_moves(
    state: State,
    movers: Sequence[int],
    terminals: State,
    options: Sequence[Sequence[Edge]],
    congestion: int = 1,
    mode: str = VERTEX,
    fixed: Load = NO_LOAD,
) -> Iterator[State | None]:
    """The moves of ``movers`` that fit, depth first: each next state, and None per cut prefix.

    Mover ``movers[j]`` takes one edge of ``options[j]``. The picks come in
    ``product(*options)`` order and are exactly those ``merge_check``
    accepts, except that movers sharing a terminal take option indices in
    non-decreasing order only: such pebbles are interchangeable, and the
    sorted pick is the lexicographically first of its permutations, fits
    whenever any of them does and leads to an equivalent state. A running
    load per element (the head in vertex mode, resting pebbles and
    ``fixed`` included; the edge in edge mode) cuts a prefix as soon as an
    element would pass ``congestion``, and None is yielded for it once.
    """
    vertex_mode, pinned = mode == VERTEX, fixed.get
    last = len(movers) - 1
    if not last:
        # one mover, the common move: no prefix to cut and no group to order
        i, nxt = movers[0], list(state)
        for edge in options[0]:
            head = edge[1]
            held = state.count(head) + pinned(head, 0) if vertex_mode else pinned(edge, 0)
            if held < congestion:
                nxt[i] = head
                yield tuple(nxt)
            else:
                yield None
        return
    # floor[j]: the mover before j with j's terminal, whose option index j may not undercut
    floor, latest = [-1] * (last + 1), {}
    for j, i in enumerate(movers):
        floor[j] = latest.get(terminals[i], -1)
        latest[terminals[i]] = j
    # load: the picks of the movers before j, on top of the resting and pinned load
    load: dict[object, int] = {}
    taken, keys = [0] * (last + 1), [None] * (last + 1)
    nxt = list(state)
    j = 0
    while True:
        opts, k = options[j], taken[j]
        if k == len(opts):
            # mover j is out of options: the one before it tries its next
            if j == 0:
                return
            j -= 1
            load[keys[j]] -= 1
            taken[j] += 1
            continue
        edge = opts[k]
        key = edge[1] if vertex_mode else edge
        if key in load:
            count = load[key] + 1
        else:
            count = (state.count(key) if vertex_mode else 0) + pinned(key, 0) + 1
        if count > congestion:
            taken[j] = k + 1
            yield None
            continue
        nxt[movers[j]] = edge[1]
        if j == last:
            taken[j] = k + 1
            yield tuple(nxt)
            continue
        load[key], keys[j] = count, key
        j += 1
        taken[j] = taken[floor[j]] if floor[j] >= 0 else 0


class DisjointShortestSolver:
    """Pebbling search routing an ``Instance`` at its congestion c per vertex or edge.

    The instance has already checked its budget, mode and demand range, so
    ``solve`` checks none of them again. ``memo`` holds the dead states,
    ``direct`` the indices of the uncontested demands, routed by their first
    tight walk before the pin pass, ``pinned`` those of the contested
    demands pinned before the search (none when the pin pass refutes),
    ``passes`` the passes of the walks in turn, ``blocked`` the demand the
    last failed pass left without a walk (None when none failed), and
    ``checked`` the moves the search checked (0 when it does not run), all
    of the latest solve() call; none is mutated once that call returns.
    """

    def __init__(self):
        self.memo = MemoStore()
        self.pinned: tuple[int, ...] = ()
        self.direct: tuple[int, ...] = ()
        self.checked = self.passes = 0
        self.blocked: int | None = None

    def solve(self, inst: Instance) -> Solution | None:
        self.memo = MemoStore()
        self.pinned = self.direct = ()
        self.checked = self.passes = 0
        self.blocked = None
        pairs, c, dag = inst.demands, inst.congestion, inst.dag
        out = dag.out_edges
        if inst.mode == VERTEX:
            load = Counter(s for s, _ in pairs) + Counter(t for s, t in pairs if t != s)
            over = [v for v, count in load.items() if count > c]
        else:
            starts = Counter(s for s, t in pairs if t != s)
            ends = Counter(t for s, t in pairs if t != s)
            over = [s for s, count in starts.items() if count > c * max(1, len(out[s]))]
            if max(ends.values(), default=0) > c:
                over += [t for t, count in ends.items() if count > c * max(1, dag.in_degree[t])]
        if over:
            # more paths start or end at the vertex than it can carry
            return _infeasible("endpoint overload at vertex %d", over[0])
        # Each pebble stays between its source and terminal in topological
        # order, so a terminal's sweep stops at the earliest of its sources.
        pos = dag.position
        first: dict[int, int] = {}
        for s, t in pairs:
            first[t] = min(s, first.get(t, s), key=pos.__getitem__)
        to_t = {t: dag.dist_to(t, s) for t, s in first.items()}
        for i, (s, t) in enumerate(pairs):
            if to_t[t][s] == INFINITY:
                return _infeasible("demand %d has no shortest path left", i)
        self.direct = self._uncontested(inst)
        # the first tight walk, which the search would give the pebble
        walks = {i: _first_walk(out, to_t[pairs[i][1]], *pairs[i]) for i in self.direct}
        fixed = self._pin(inst, to_t, walks)
        if fixed is None:
            return None
        self.pinned = tuple(sorted(walks.keys() - self.direct))
        free = [i for i in range(len(pairs)) if i not in walks]
        log.debug("demands: %d pinned, %d direct, %d searched",
                  len(self.pinned), len(self.direct), len(free))
        routed = self._route_in_turn(inst, free, to_t, fixed) if free else {}
        if routed is None:
            # a solve whose first pass gives up pays for the bound, which may spare it the retries
            cut = overloaded_cut(inst)
            if cut is not None:
                return _infeasible(*cut)
            # each retry moves the demand left without a walk to the front: k passes at most
            order = list(free)
            while routed is None and 0 < self.passes < len(free) and self.blocked != order[0]:
                order.remove(self.blocked)
                order.insert(0, self.blocked)
                routed = self._route_in_turn(inst, order, to_t, fixed)
        if routed is None:
            states = self._search(inst, tuple(pairs[i][0] for i in free),
                                  tuple(pairs[i][1] for i in free), to_t, fixed)
            if states is None:
                return _infeasible("search exhausted after %d dead states", len(self.memo.entries))
            # Pebbles only move forward, so dropping repeats leaves each walk.
            routed = {i: tuple(dict.fromkeys(state[j] for state in states))
                      for j, i in enumerate(free)}
        walks.update(routed)
        return Solution(tuple(Path(walks[i], to_t[t][s]) for i, (s, t) in enumerate(pairs)))

    def _route_in_turn(
        self,
        inst: Instance,
        free: Sequence[int],
        to_t: Mapping[int, Sequence[float]],
        fixed: Load,
    ) -> dict[int, tuple[int, ...]] | None:
        """Each demand of ``free``, in that order, by its first tight walk over elements below c.

        A walk goes depth first over its vertex's tight out-edges in
        out-edge order, skipping each edge whose element is at c on top of
        ``fixed``, in vertex mode one per free demand's source and terminal,
        and the walks before it; a vertex it backs out of stays dead for the
        demand, so each tight edge is tried once. When every first tight
        walk fits, those are the walks found. The routing found is valid. A
        demand left without a walk proves nothing, since an earlier walk may
        have taken its route: it is kept as ``blocked``, for ``solve`` to
        retry it first, and the pass returns None. Each call counts one in
        ``passes``; ``checked`` stays 0. The same ``free`` order always
        gives the same walks.
        """
        self.passes += 1
        pairs, c, out = inst.demands, inst.congestion, inst.dag.out_edges
        vertex_mode = inst.mode == VERTEX
        load = dict(fixed)
        held = load.get
        if vertex_mode:
            # free demands have s != t: no walk enters its own source, and the
            # terminal's count stands for the walk's arrival there until it is made
            for i in free:
                for x in pairs[i]:
                    load[x] = held(x, 0) + 1
        walks = {}
        for i in free:
            s, t = pairs[i]
            b = to_t[t]
            if vertex_mode:
                load[t] -= 1
            # keys[j]: the element the step onto walk[j + 1] loads; tails[j]: walk[j]'s
            # out-edges not yet tried
            walk, keys, tails, dead = [s], [], [], set()
            u, edges = s, iter(out[s])
            while u != t:
                bu = b[u]
                for edge in edges:
                    v = edge[1]
                    if edge[2] + b[v] == bu and v not in dead:
                        key = v if vertex_mode else edge
                        if held(key, 0) < c:
                            break
                else:
                    # every tight edge out of u is full or leads to a dead vertex
                    if u == s:
                        self.blocked = i
                        return None
                    dead.add(walk.pop())
                    keys.pop()
                    u, edges = walk[-1], tails.pop()
                    continue
                walk.append(v)
                keys.append(key)
                tails.append(edges)
                u, edges = v, iter(out[v])
            for key in keys:
                load[key] = held(key, 0) + 1
            walks[i] = tuple(walk)
        if self.passes == 1:
            log.debug("walks in turn: %d demands routed", len(walks))
        else:
            log.debug("walks in turn: %d demands routed on pass %d", len(walks), self.passes)
        return walks

    def _pin(
        self,
        inst: Instance,
        to_t: Mapping[int, Sequence[float]],
        walks: dict[int, tuple[int, ...]],
    ) -> Load | None:
        """Pin each forced demand not in ``walks`` into it; their loads, or None when infeasible.

        First each demand's forced walk: from s along its tight out-edges
        while exactly one is tight. A walk that reaches t is the demand's
        only shortest path, which is pinned unless an element on it is at c
        already. While no element is at c every fork leads on to t, so no
        demand that forks can be forced, and only once one is at c do the
        counted rounds run: each counts every free demand's paths over the
        open elements, up to 2, pins a demand with one and refutes one with
        none, until a round pins nothing.
        """
        pairs, c, vertex_mode = inst.demands, inst.congestion, inst.mode == VERTEX
        out = inst.dag.out_edges
        fixed: dict[object, int] = {}
        pinned = fixed.get
        full = False
        for i, (s, t) in enumerate(pairs):
            if i in walks:
                continue
            b = to_t[t]
            # steps: the elements the walk loads, its source included in vertex mode
            walk, steps, u = [s], [s] if vertex_mode else [], s
            while u != t:
                # step: u's one tight edge, or None at a fork (u is on a shortest
                # path to t, so it has a tight edge)
                bu, step = b[u], None
                for edge in out[u]:
                    if edge[2] + b[edge[1]] == bu:
                        if step is not None:
                            step = None
                            break
                        step = edge
                if step is None:
                    break
                u = step[1]
                walk.append(u)
                steps.append(u if vertex_mode else step)
            else:
                if any(pinned(x, 0) >= c for x in steps):
                    return _infeasible("demand %d has no shortest path left", i)
                walks[i] = tuple(walk)
                for x in steps:
                    fixed[x] = load = pinned(x, 0) + 1
                    full = full or load == c
        if full and not self._count_rounds(inst, to_t, walks, fixed):
            return None
        if vertex_mode and fixed:
            starts = Counter(s for i, (s, _) in enumerate(pairs) if i not in walks)
            for s, count in starts.items():
                if pinned(s, 0) + count > c:
                    return _infeasible("pinned paths overload vertex %d", s)
        return fixed

    @staticmethod
    def _count_rounds(
        inst: Instance,
        to_t: Mapping[int, Sequence[float]],
        walks: dict[int, tuple[int, ...]],
        fixed: dict[object, int],
    ) -> bool:
        """Pin into ``walks`` and ``fixed`` each demand left one path over the open elements.

        Rounds repeat until one pins nothing. False, with the reason logged,
        when a demand has no path left.
        """
        pairs, c, vertex_mode = inst.demands, inst.congestion, inst.mode == VERTEX
        pos, order, out = inst.dag.position, inst.dag.order, inst.dag.out_edges
        pinned = fixed.get
        changed = True
        while changed:
            changed = False
            for i, (s, t) in enumerate(pairs):
                if i in walks:
                    continue
                # count the demand's shortest paths over the elements left open
                b = to_t[t]
                ways = {} if vertex_mode and pinned(s, 0) >= c else {s: 1}
                last: dict[int, Edge] = {}
                for u in order[pos[s]:pos[t]]:
                    if u not in ways:
                        continue
                    bu, here = b[u], ways[u]
                    for edge in out[u]:
                        head = edge[1]
                        if edge[2] + b[head] == bu and pinned(head if vertex_mode else edge, 0) < c:
                            # path counts stop at 2: more than one is all that matters
                            ways[head] = 2 if head in ways else here
                            last[head] = edge
                count = ways.get(t, 0)
                if count == 0:
                    _infeasible("demand %d has no shortest path left", i)
                    return False
                if count == 1:
                    # ways is 1 all along the one path, so its last edges trace it
                    walk = [t]
                    while walk[-1] != s:
                        walk.append(last[walk[-1]][0])
                    walks[i] = tuple(reversed(walk))
                    # the path runs over open elements only, so it fits the budget
                    for x in walk if vertex_mode else map(last.get, walk[:-1]):
                        fixed[x] = pinned(x, 0) + 1
                    changed = True
        return True

    @staticmethod
    def _uncontested(inst: Instance) -> tuple[int, ...]:
        """The demands whose windows [pos[s], pos[t]] meet at most c windows at every position."""
        pairs, pos = inst.demands, inst.dag.position
        # over[p]: the positions before p that more than c windows meet
        over = list(accumulate(map(inst.congestion.__lt__, _window_counts(inst, 1)), initial=0))
        return tuple(i for i, (s, t) in enumerate(pairs) if over[pos[t] + 1] == over[pos[s]])

    def _search(
        self,
        inst: Instance,
        start: State,
        terminals: State,
        to_t: Mapping[int, Sequence[float]],
        fixed: Load,
    ) -> list[State] | None:
        """The states from ``start`` to ``terminals`` along the first finishing move sequence."""
        order, pos = sweep_order(inst.dag)
        out = inst.dag.out_edges
        c, mode, dead, put = inst.congestion, inst.mode, self.memo.entries, self.memo.put

        def moves(state: State) -> Iterator[State | None]:
            u = order[min([pos[v] for v, t in zip(state, terminals) if v != t])]
            movers = [i for i, v in enumerate(state) if v == u != terminals[i]]
            options = [_tight(out[u], to_t[terminals[i]], u) for i in movers]
            return fitting_moves(state, movers, terminals, options, c, mode, fixed)

        checked, done = 0, object()
        path, frames = [start], [moves(start)]
        try:
            while frames:
                nxt = next(frames[-1], done)
                if nxt is done:
                    frames.pop()
                    put(path.pop())
                    continue
                if checked >= MAX_MOVES_CHECKED:
                    raise LimitExceeded(f"search gave up after {MAX_MOVES_CHECKED} moves checked")
                checked += 1
                if nxt is None or nxt in dead:
                    continue
                path.append(nxt)
                if nxt == terminals:
                    return path
                frames.append(moves(nxt))
            return None
        finally:
            self.checked = checked
            log.debug("search: %d dead states, %d moves checked", len(dead), checked)


def sweep_order(dag: Dag) -> tuple[list[int], list[int]]:
    """The search's topological sweep order, and each vertex's position in it (index 0 unused).

    Kahn's rule with a stack in place of ``Dag.order``'s smallest-id heap:
    the heads a vertex makes ready come next, the head of its first
    out-edge first, and the sources wait below them, smallest id on top.
    So the sweep follows one branch as far as it can before it turns to
    the next, which tends to keep few pebbles in flight at once.
    """
    out, n = dag.out_edges, dag.vertex_count
    indegree = list(dag.in_degree)
    stack = [v for v in range(n, 0, -1) if not indegree[v]]
    order, pos = [], [0] * (n + 1)
    while stack:
        u = stack.pop()
        pos[u] = len(order)
        order.append(u)
        # pushed last to first, so the first out-edge's head is popped first
        for _, head, _ in reversed(out[u]):
            indegree[head] -= 1
            if not indegree[head]:
                stack.append(head)
    return order, pos


def overloaded_cut(inst: Instance) -> tuple[object, ...] | None:
    """Why more demands must cross one cut of ``Dag.order`` than it carries, or None.

    Returns the reason and its arguments, for ``_infeasible``. A demand's
    window is the positions of ``Dag.order`` from its source to its
    terminal, and each of its paths meets every position in it or jumps
    over it along an edge. In vertex mode a vertex that no edge jumps over
    is on every path whose window holds it, so more than c such windows
    refute. In edge mode every path whose window holds the positions p and
    p + 1 takes one of the E edges from p or before to after p, so more
    than c * E such windows refute. Both tests are exact, in one pass in
    O(n + m + k) that stops at the first cut they refute.
    """
    dag, c, vertex_mode = inst.dag, inst.congestion, inst.mode == VERTEX
    order, out = dag.order, dag.out_edges
    # windows[p]: the windows holding p in vertex mode, or p and p + 1 in edge mode
    windows = _window_counts(inst, 1 if vertex_mode else 0)
    # crossing[p]: the edges from p or before to after p
    cross = accumulate(map(sub, map(len, map(out.__getitem__, order)),
                           map(dag.in_degree.__getitem__, order)))
    # every element carries c, so a cut that holds at most c windows fits
    hot = compress(enumerate(zip(windows, cross)), map(c.__lt__, windows))
    for p, (held, crossing) in hot:
        if vertex_mode:
            # the edges out of p are all that cross after it: none jumps over p
            if crossing == len(out[order[p]]):
                return ("cut overload at vertex %d: %d demands must pass it, %d fit",
                        order[p], held, c)
        elif held > c * crossing:
            return ("cut overload after vertex %d: %d demands must cross %d edges, %d fit",
                    order[p], held, crossing, c * crossing)
    return None


def _window_counts(inst: Instance, end: int) -> list[int]:
    """How many windows [pos[s], pos[t] + end - 1] of ``Dag.order`` hold each position."""
    pos, windows = inst.dag.position, [0] * (inst.dag.vertex_count + 1)
    for s, t in inst.demands:
        windows[pos[s]] += 1
        windows[pos[t] + end] -= 1
    return list(accumulate(windows))


def _infeasible(reason: str, *args: object) -> None:
    """Log why a solve found no routing, and return its None."""
    log.debug("infeasible: " + reason, *args)
    return None


def solve_disjoint_shortest(inst: Instance) -> Solution | None:
    """Route every demand by a shortest path with at most ``inst.congestion`` paths per element.

    The elements are vertices when ``inst.mode`` is "vertex" and edges when
    it is "edge". Returns None when no such routing exists, and raises
    LimitExceeded when the search records ``MAX_DEAD_STATES`` dead states or
    checks ``MAX_MOVES_CHECKED`` moves without deciding; the walks in turn
    check no move, so a solve they route meets neither budget.
    Deterministic: the walks in turn take the free demands in demand order
    and each vertex's tight edges in out-edge order, each retry moves the
    demand the pass before left without a walk to the front, and the
    search, which runs only when every pass gives up, tries the movers'
    edges in lexicographic order of their out-edge lists; the first routing
    found wins.
    """
    return DisjointShortestSolver().solve(inst)


def solve_with_congestion(inst: Instance) -> Solution | None:
    """``solve_disjoint_shortest``, with its routing checked again by ``verify_solution``.

    A routing that fails the check raises ProjectionInvalid (it would mean a
    solver bug). Returns None exactly when the instance is infeasible.
    """
    routed = solve_disjoint_shortest(inst)
    if routed is None:
        return None
    report = verify_solution(inst, routed)
    if not report.feasible:
        raise ProjectionInvalid(f"solver routing fails verification: {report.violations}")
    return routed


def count_shortest_paths(dag: Dag, s: int, t: int, to_t: Sequence[float] | None = None) -> int:
    """Number of distinct shortest s-to-t paths, along the tight edges from s (0 if none).

    ``to_t`` is ``dag.dist_to(t, s)`` when the caller has already swept it.
    """
    b = dag.dist_to(t, s) if to_t is None else to_t
    if b[s] == INFINITY:
        return 0
    ways = [0] * (dag.vertex_count + 1)
    ways[s] = 1
    pos = dag.position
    for v in dag.order[pos[s]:pos[t]]:
        if not ways[v]:
            continue
        for _, head, weight in dag.out_edges[v]:
            if weight + b[head] == b[v]:
                ways[head] += ways[v]
    return ways[t]


def iter_shortest_paths(
    dag: Dag, s: int, t: int, to_t: Sequence[float] | None = None
) -> Iterator[Path]:
    """All shortest s-to-t paths, in lexicographic order of their vertex sequences.

    Walks from s only the tight edges (u, v, w): w + b[v] = b[u], b = dist(., t).
    ``to_t`` is ``dag.dist_to(t, s)`` when the caller has already swept it.
    """
    b = dag.dist_to(t, s) if to_t is None else to_t
    target = b[s]
    if target == INFINITY:
        return
    # Depth-first with an explicit stack, so long paths stay clear of the
    # recursion limit: pending[i] iterates the next vertices after path[:i].
    path: list[int] = []
    pending = [iter((s,))]
    while pending:
        v = next(pending[-1], None)
        if v is None:
            pending.pop()
            del path[-1:]  # the first level has no vertex to drop
        elif v == t:
            yield Path((*path, t), int(target))
        else:
            path.append(v)
            pending.append(iter(sorted(
                head for _, head, weight in dag.out_edges[v] if weight + b[head] == b[v]
            )))


def brute_force_oracle(inst: Instance, limit: int = 10**6) -> Solution | None:
    """Independent exhaustive solver: try every combination of shortest paths.

    Enumerates, per demand, all shortest paths between its endpoints and
    backtracks over combinations (``core.backtrack``), respecting the
    congestion budget in the instance's mode. Returns the lexicographically
    first feasible combination, or None. Raises OracleTooLarge when the
    product of per-demand shortest-path counts exceeds ``limit``.
    """
    dag = inst.dag
    sweeps = [dag.dist_to(t, s) for s, t in inst.demands]
    counts = [count_shortest_paths(dag, s, t, b) for (s, t), b in zip(inst.demands, sweeps)]
    if 0 in counts:
        return None  # some terminal is unreachable
    if prod(counts) > limit:
        raise OracleTooLarge(f"{prod(counts)} path combinations exceed the bound of {limit}")

    vertex_mode = inst.mode == VERTEX
    # each demand's paths, each with the elements it loads
    choices = [
        [(path, path.vertices if vertex_mode else tuple(path.edge_seq()))
         for path in iter_shortest_paths(dag, s, t, b)]
        for (s, t), b in zip(inst.demands, sweeps)
    ]
    budget = inst.congestion
    load: Counter = Counter()
    picked = backtrack(
        choices,
        lambda chosen, option: all(load[x] < budget for x in option[1]),
        pick=lambda option: load.update(option[1]),
        undo=lambda option: load.subtract(option[1]),
    )
    return None if picked is None else Solution(tuple(path for path, _ in picked))
