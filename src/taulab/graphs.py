"""Metrized graphs: connected multigraphs with positive edge lengths.

A metrized graph doubles as a resistive circuit: each edge is a resistor
whose resistance equals its length.  Self-loops and parallel edges are both
allowed, vertices are integers 0..vertex_count-1, and edges keep the order
in which they were given so that edge indices are stable handles.

Graphs are immutable.  Every graph built by its constructor is validated
(index range, positive finite lengths, connectivity).  Input from outside
comes in through build_graph, which also bounds each length to
[MIN_LENGTH, MAX_LENGTH]; scaled and normalize build through it too.
Surgeries shrink lengths only by small factors (halving, subdivision),
which stays far inside the range where the circuit layer is exact, so
their outputs are not bounded again.  Surgeries whose outputs are valid
by construction build them with MetrizedGraph._unchecked.

Each graph carries its own memo, a dict outside the dataclass fields (so
outside eq, repr and hash).  graph_memo stores a function's result for a
graph and its further arguments there: bridges, the closed-form circuit
data, the profile at each base, the contraction lattice and the surgeries
the identity catalog reads.  So whatever is computed for a graph lives
exactly as long as the graph, and a surgery's result is held by its
parent's memo.  An equal graph built a second time starts with an empty
memo, and no table is shared across graphs.  Surgeries whose bridges
follow from their parent's seed the result's memo with them (graph_memo's
seed): contractions and doubled graphs.  Parsed graphs, deletions and
gluings run the depth-first pass.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    BadEdgeIndex,
    BadVertexIndex,
    DisconnectedGraph,
    NonPositiveLength,
)

Edge = tuple[int, int, float]

# build_graph accepts lengths in [MIN_LENGTH, MAX_LENGTH], so that cubes of
# lengths and products of two conductances stay normal floats; near 1e+-154
# conductance products underflow to 0 and the circuit solves break down.
MIN_LENGTH = 1e-100
MAX_LENGTH = 1e100


@dataclass(frozen=True)
class MetrizedGraph:
    """A connected multigraph with a positive length on every edge."""

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        n = _index(self.vertex_count, BadVertexIndex, "vertex_count")
        if n < 1:
            raise BadVertexIndex(f"vertex_count must be >= 1, got {n}")
        normalized = []
        for pos, edge in enumerate(self.edges):
            try:
                a, b, length = edge
            except (TypeError, ValueError):
                raise NonPositiveLength(f"edge {pos} must be a (u, w, length) triple, got {edge!r}")
            a = _index(a, BadVertexIndex, f"edge {pos}'s first endpoint")
            b = _index(b, BadVertexIndex, f"edge {pos}'s second endpoint")
            try:
                length = float(length)
            except (TypeError, ValueError):
                raise NonPositiveLength(f"edge {pos} has length {length!r}, not a number") from None
            if not (0 <= a < n) or not (0 <= b < n):
                raise BadVertexIndex(f"edge {pos} touches vertex outside 0..{n - 1}: ({a}, {b})")
            if not math.isfinite(length) or length <= 0.0:
                raise NonPositiveLength(f"edge {pos} has non-positive length {length!r}")
            normalized.append((a, b, length))
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "_memo", {})
        # Too few edges to span n vertices: reject before any per-vertex work,
        # so a huge vertex count with a handful of edges fails at once.
        if sum(a != b for a, b, _ in normalized) < n - 1 or not _connected(n, self.edges):
            raise DisconnectedGraph(f"graph on {n} vertices with {len(self.edges)} edges is not connected")

    @classmethod
    def _unchecked(cls, vertex_count: int, edges: tuple[Edge, ...]) -> "MetrizedGraph":
        """A graph from fields already valid and normalized (int ends, float lengths, connected).

        Sets the fields and an empty memo and checks nothing: for surgeries
        whose outputs are valid by construction.
        """
        g = object.__new__(cls)
        vars(g).update(vertex_count=vertex_count, edges=edges, _memo={})
        return g

    # -- size queries ------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def genus(self) -> int:
        """First Betti number e - v + 1 (count of independent cycles)."""
        return len(self.edges) - self.vertex_count + 1

    @cached_property
    def total_length(self) -> float:
        """The sum of the edge lengths, taken once per graph instance."""
        return math.fsum(map(operator.itemgetter(2), self.edges))

    def check_vertex(self, p: int) -> int:
        p = _index(p, BadVertexIndex, "vertex")
        if not (0 <= p < self.vertex_count):
            raise BadVertexIndex(f"vertex {p} outside 0..{self.vertex_count - 1}")
        return p

    def check_edge(self, i: int) -> int:
        i = _index(i, BadEdgeIndex, "edge index")
        if not self.edges:
            raise BadEdgeIndex(f"edge {i}: the graph has no edges")
        if not (0 <= i < len(self.edges)):
            raise BadEdgeIndex(f"edge {i} outside 0..{len(self.edges) - 1}")
        return i

    # -- local structure ---------------------------------------------------

    def valence(self, p: int) -> int:
        """Number of edge ends meeting p; a self-loop contributes 2."""
        p = self.check_vertex(p)
        count = 0
        for a, b, _ in self.edges:
            if a == p:
                count += 1
            if b == p:
                count += 1
        return count

    def min_valence(self) -> int:
        """Smallest valence over all vertices, in one pass over the edges."""
        counts = [0] * self.vertex_count
        for a, b, _ in self.edges:
            counts[a] += 1
            counts[b] += 1
        return min(counts)

    # -- scaling -----------------------------------------------------------

    def scaled(self, factor: float) -> "MetrizedGraph":
        """Every length times factor, built through build_graph, so its length bounds hold."""
        factor = float(factor)
        if not math.isfinite(factor) or factor <= 0.0:
            raise NonPositiveLength(f"scale factor must be positive and finite, got {factor!r}")
        return build_graph(self.vertex_count, ((a, b, length * factor) for a, b, length in self.edges))

    def normalize(self) -> "MetrizedGraph":
        """Rescale all lengths by the same factor so total length is 1 (through scaled)."""
        total = self.total_length
        if total <= 0.0:
            raise NonPositiveLength("cannot normalize a graph with no edges")
        return self.scaled(1.0 / total)

    # -- global structure ----------------------------------------------------

    def bridges(self) -> frozenset[int]:
        """Edge indices whose deletion disconnects the graph."""
        return _bridge_ids(self)

    def is_bridgeless(self) -> bool:
        return not _bridge_ids(self)


def _index(value, error: type, what: str) -> int:
    """value as a Python int, if operator.index accepts it (Python and numpy integers); else error."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def build_graph(vertex_count: int, edges: Iterable[Sequence]) -> MetrizedGraph:
    """Validate and build a metrized graph from raw (u, w, length) triples.

    The vertex count and endpoints must be integers (operator.index) and
    lengths convertible by float(); anything else raises a TauLabError.
    """
    g = MetrizedGraph(vertex_count, tuple(edges))
    for pos, (_, _, length) in enumerate(g.edges):
        if not MIN_LENGTH <= length <= MAX_LENGTH:
            raise NonPositiveLength(
                f"edge {pos} has length {length!r}, outside [{MIN_LENGTH!r}, {MAX_LENGTH!r}]"
            )
    return g


# -- the per-graph memo ------------------------------------------------------


class CacheInfo(NamedTuple):
    hits: int
    misses: int


def graph_memo(fn: Callable) -> Callable:
    """fn(g, *args, **kwargs), stored in g's memo under fn and the further arguments.

    fn must be pure.  A call that raises stores nothing.  The wrapper
    counts hits and misses over all graphs; cache_info() returns them.
    seed(g, value, *args) stores a value known without calling fn, such as
    one a surgery hands down from its parent's; it counts as neither.
    """
    hits = misses = 0

    @wraps(fn)
    def memoized(g, *args, **kwargs):
        nonlocal hits, misses
        key = (fn, args, *kwargs.items()) if kwargs else (fn, args)
        memo = g._memo
        if key in memo:
            hits += 1
            return memo[key]
        misses += 1
        value = memo[key] = fn(g, *args, **kwargs)
        return value

    memoized.cache_info = lambda: CacheInfo(hits, misses)
    memoized.seed = lambda g, value, *args: g._memo.setdefault((fn, args), value)
    return memoized


# -- connectivity helpers (shared with the transforms) ------------------------


def _connected(vertex_count: int, edges: Sequence[Edge]) -> bool:
    return max(component_labels(vertex_count, edges)) == 0


def component_labels(vertex_count: int, edges: Sequence[Edge]) -> list[int]:
    """Label each vertex with its connected-component index (0-based, by BFS)."""
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for a, b, _ in edges:
        if a == b:
            continue
        adj[a].append(b)
        adj[b].append(a)
    labels = [-1] * vertex_count
    current = 0
    for root in range(vertex_count):
        if labels[root] != -1:
            continue
        labels[root] = current
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if labels[w] == -1:
                    labels[w] = current
                    frontier.append(w)
        current += 1
    return labels


@graph_memo
def _bridge_ids(g: MetrizedGraph) -> frozenset[int]:
    """Bridge edges by one depth-first pass (Tarjan 1974), iterative and multigraph aware.

    Each stack frame is (vertex, id of the edge it was entered by, iterator
    over its incidences), so a step advances an iterator and writes no list.
    The entry edge is skipped by its id, not by its endpoint, so a parallel
    copy of a tree edge lowers the low-link and parallel edges are never
    bridges.  A tree edge is a bridge when nothing below it reaches above
    its upper end: low[child] > disc[parent].  Self-loops are skipped.

    Surgeries whose bridges follow from their parent's hand them down
    through _bridge_ids.seed instead of running this pass: contract_edge
    and double_adjusted.
    """
    n = g.vertex_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (a, b, _) in enumerate(g.edges):
        if a != b:
            adj[a].append((b, eid))
            adj[b].append((a, eid))
    disc = [-1] * n
    low = [0] * n
    out: list[int] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            u, entry, incidences = stack[-1]
            for w, eid in incidences:
                if eid == entry:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, iter(adj[w])))
                    break
                if disc[w] < low[u]:
                    low[u] = disc[w]
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] > disc[parent]:
                        out.append(entry)
    return frozenset(out)
