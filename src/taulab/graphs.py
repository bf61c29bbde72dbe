"""Metrized graphs: connected multigraphs with positive edge lengths.

A metrized graph doubles as a resistive circuit: each edge is a resistor
whose resistance equals its length.  Self-loops and parallel edges are both
allowed, vertices are integers 0..vertex_count-1, and edges keep the order
in which they were given so that edge indices are stable handles.

Graphs are immutable.  Every graph built by its constructor is validated
(index range, positive finite lengths, connectivity).  Input from outside
comes in through build_graph, which also bounds each length to
[MIN_LENGTH, MAX_LENGTH]; surgeries shrink lengths only by small factors
(halving, subdivision), which stays far inside the range where the circuit
layer is exact, so their outputs are not bounded again.  Surgeries whose
outputs are valid by construction build them with MetrizedGraph._unchecked.

Each graph carries its own memo, a dict outside the dataclass fields (so
outside eq, repr and hash).  graph_memo stores a function's result for a
graph and its further arguments there: bridges, the closed-form circuit
data, the profile at each base, the contraction lattice and the surgeries
the identity catalog reads.  So whatever is computed for a graph lives
exactly as long as the graph, and a surgery's result is held by its
parent's memo.  An equal graph built a second time starts with an empty
memo.

One table is shared across graphs: _CORES interns loopless cores
(loopless_core), each graph's non-loop edges on its vertices, by value.
The circuit layer memoizes its GTH star arms on the core, so graphs that
differ only in self-loops reduce once.  The table holds its cores weakly:
a core lives only while a live graph holds it in its memo (or is that
core), so the table never outgrows the live graphs.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import wraps
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
        try:
            n = int(self.vertex_count)
        except (TypeError, ValueError):
            raise BadVertexIndex(f"vertex_count must be an integer, got {self.vertex_count!r}")
        if n < 1:
            raise BadVertexIndex(f"vertex_count must be >= 1, got {n}")
        normalized = []
        for pos, edge in enumerate(self.edges):
            try:
                a, b, length = edge
            except (TypeError, ValueError):
                raise NonPositiveLength(f"edge {pos} must be a (u, w, length) triple, got {edge!r}")
            a = int(a)
            b = int(b)
            length = float(length)
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

    @property
    def total_length(self) -> float:
        return math.fsum(length for _, _, length in self.edges)

    def check_vertex(self, p: int) -> int:
        p = int(p)
        if not (0 <= p < self.vertex_count):
            raise BadVertexIndex(f"vertex {p} outside 0..{self.vertex_count - 1}")
        return p

    def check_edge(self, i: int) -> int:
        i = int(i)
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
        factor = float(factor)
        if not math.isfinite(factor) or factor <= 0.0:
            raise NonPositiveLength(f"scale factor must be positive and finite, got {factor!r}")
        return MetrizedGraph(self.vertex_count, tuple((a, b, length * factor) for a, b, length in self.edges))

    def normalize(self) -> "MetrizedGraph":
        """Rescale all lengths by the same factor so total length is 1."""
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


def build_graph(vertex_count: int, edges: Iterable[Sequence]) -> MetrizedGraph:
    """Validate and build a metrized graph from raw (u, w, length) triples."""
    g = MetrizedGraph(int(vertex_count), tuple(tuple(edge) for edge in edges))
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
    return memoized


# -- loopless cores ------------------------------------------------------------

# (vertex_count, non-loop edges) -> the core with exactly those fields.  The
# values are weak: a core lives while a graph's memo holds it or while it is
# itself a live graph without loops.
_CORES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def loopless_core(g: MetrizedGraph) -> MetrizedGraph:
    """g without its self-loops: same vertices, the non-loop edges in edge order.

    Value-equal cores are one object, interned in _CORES, so graphs that
    differ only in their loops (the twins of a contracted parallel edge
    turn into loops) share whatever is memoized on their core.  A graph
    without loops is its own core when no equal core is interned yet; every
    other graph holds its core in its memo, which keeps the core alive.
    """
    core = g._memo.get(loopless_core)
    if core is not None:
        return core
    kept = tuple(edge for edge in g.edges if edge[0] != edge[1])
    key = (g.vertex_count, kept)
    core = _CORES.get(key)
    if core is None:
        if len(kept) == len(g.edges):
            _CORES[key] = g
            return g
        core = _CORES[key] = MetrizedGraph._unchecked(g.vertex_count, kept)
    if core is not g:
        g._memo[loopless_core] = core
    return core


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
    """Bridge edges via one depth-first pass (iterative, multigraph aware).

    The entry edge into a vertex is skipped by its id, not by its endpoint,
    so a parallel copy of the tree edge correctly lowers the low-link and
    parallel edges are never reported as bridges.  Self-loops are ignored.
    """
    n = g.vertex_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (a, b, _) in enumerate(g.edges):
        if a == b:
            continue
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
        stack: list[list[int]] = [[root, -1, 0]]
        while stack:
            u, entry_eid, pos = stack[-1]
            if pos < len(adj[u]):
                stack[-1][2] = pos + 1
                w, eid = adj[u][pos]
                if eid == entry_eid:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append([w, eid, 0])
                else:
                    low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if entry_eid != -1:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[u])
                    if low[u] > disc[parent]:
                        out.append(entry_eid)
    return frozenset(out)
