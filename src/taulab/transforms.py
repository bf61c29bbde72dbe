"""Surgeries on metrized graphs.

All operations return new graphs; inputs are never mutated, and no operation
reports how old labels map to new ones: the mapping follows from one
convention.  When two vertices merge, they collapse onto the smaller index
and every vertex above the larger index shifts down by one.  Vertex 0
therefore always survives as vertex 0, which is what lets invariant code
compare base-pointed quantities across a surgery without extra bookkeeping.
Edge order is preserved (minus removals), and edge lengths never change
unless the operation says so.  Sequences of contractions are walked over
``invariants.contraction_lattice``, a DAG of contracted edge sets that
relies on this convention without calling contract_edge: contracting a set
F, in any order, numbers each block of the partition F induces by its rank
in lowest original vertex and keeps the edges outside F, in order, so the
lattice builds one loopless core per partition directly from the labels
and keeps each node's loops as lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cuts import edge_connectivity
from .errors import (
    HasCutVertex,
    NonPositiveLength,
    NotApplicable,
    NotNormalized,
    SameVertex,
    TooSmall,
    ValenceBelowThree,
    WouldDisconnect,
)
from .graphs import MetrizedGraph, _bridge_ids, _index, component_labels


# Deletion, contraction and gluing keep every length and the connectivity of
# a valid graph, so their outputs skip re-validation (MetrizedGraph._unchecked).


def _shrunk(vertex_count: int, edges: list) -> MetrizedGraph:
    """A graph whose lengths were divided down from valid ones: only positivity can fail.

    A subnormal length halves or divides to 0.0 (possible in graphs built
    directly, not through build_graph), and that is refused here.
    """
    for pos, (_, _, length) in enumerate(edges):
        if not length > 0.0:
            raise NonPositiveLength(f"edge {pos} would have non-positive length {length!r}")
    return MetrizedGraph._unchecked(vertex_count, tuple(edges))


def _merged(g: MetrizedGraph, u: int, w: int, edges) -> MetrizedGraph:
    """The given edges on g's vertices with u and w merged onto min(u, w)."""
    lo, hi = (u, w) if u < w else (w, u)
    vmap = tuple(lo if v == hi else v - 1 if v > hi else v for v in range(g.vertex_count))
    merged = tuple((vmap[x], vmap[y], length) for x, y, length in edges)
    return MetrizedGraph._unchecked(g.vertex_count - 1, merged)


def delete_edge(g: MetrizedGraph, i: int) -> MetrizedGraph:
    """The graph with edge i removed; refuses to disconnect."""
    i = g.check_edge(i)
    if i in g.bridges():
        raise WouldDisconnect(f"edge {i} is a bridge; deleting it would disconnect the graph")
    return MetrizedGraph._unchecked(g.vertex_count, g.edges[:i] + g.edges[i + 1:])


def contract_edge(g: MetrizedGraph, i: int) -> MetrizedGraph:
    """Shrink edge i to a point, merging its endpoints (loops just vanish).

    The result's bridges are g's other bridges, reindexed, and are handed
    down into its memo: (G/e) - f = (G - f)/e, and contracting an edge
    neither joins nor splits components.
    """
    i = g.check_edge(i)
    a, b, _ = g.edges[i]
    rest = g.edges[:i] + g.edges[i + 1:]
    if a == b:
        # Contracting a self-loop shrinks the loop to a point: the edge just
        # disappears and the genus drops by one.
        out = MetrizedGraph._unchecked(g.vertex_count, rest)
    else:
        out = _merged(g, a, b, rest)
    _bridge_ids.seed(out, frozenset(j if j < i else j - 1 for j in g.bridges() if j != i))
    return out


def identify_endpoints(g: MetrizedGraph, i: int) -> MetrizedGraph:
    """Glue the two endpoints of edge i together, keeping the edge as a loop."""
    i = g.check_edge(i)
    a, b, _ = g.edges[i]
    return g if a == b else identify_points(g, a, b)


def identify_points(g: MetrizedGraph, p: int, q: int) -> MetrizedGraph:
    """Glue two distinct vertices into one."""
    p = g.check_vertex(p)
    q = g.check_vertex(q)
    if p == q:
        raise SameVertex(f"identify_points needs two distinct vertices, got {p} twice")
    return _merged(g, p, q, g.edges)


def double_adjusted(g: MetrizedGraph) -> MetrizedGraph:
    """Replace every edge by two parallel copies of half its length.

    Old edge i becomes new edges 2i and 2i+1.  Total length is preserved and
    every effective resistance drops by a factor of 4.  Every edge has a
    parallel twin, so the result has no bridge, and its memo is told so.
    """
    edges: list[tuple[int, int, float]] = []
    for a, b, length in g.edges:
        half = 0.5 * length
        edges.append((a, b, half))
        edges.append((a, b, half))
    out = _shrunk(g.vertex_count, edges)
    _bridge_ids.seed(out, frozenset())
    return out


def subdivide(g: MetrizedGraph, m: int) -> MetrizedGraph:
    """Split every edge into m equal sub-edges through fresh valence-2 vertices.

    Old edge i becomes new edges m*i .. m*i+m-1, oriented from the old first
    endpoint to the old second one.  New vertices are appended after the
    original ones, in edge order.
    """
    m = _index(m, TooSmall, "subdivision factor")
    if m < 1:
        raise TooSmall(f"subdivision factor must be >= 1, got {m}")
    if m == 1:
        return g
    edges: list[tuple[int, int, float]] = []
    next_vertex = g.vertex_count
    for a, b, length in g.edges:
        step = length / m
        chain = [a] + [next_vertex + k for k in range(m - 1)] + [b]
        next_vertex += m - 1
        for u, w in zip(chain[:-1], chain[1:]):
            edges.append((u, w, step))
    return _shrunk(next_vertex, edges)


# -- cut vertices --------------------------------------------------------------


def cut_vertices(g: MetrizedGraph) -> frozenset[int]:
    """Vertices whose removal disconnects the graph as a length space.

    The test is topological, not combinatorial: removing the point must
    disconnect what remains, so a vertex carrying a self-loop (with anything
    else attached) counts, as does the attachment point of a pendant edge's
    subtree.  Implemented by subdividing once so edge interiors are visible
    to a plain component count.
    """
    fine = subdivide(g, 2)
    out = []
    for p in range(g.vertex_count):
        labels = component_labels(fine.vertex_count, [e for e in fine.edges if p not in e[:2]])
        rest = [labels[v] for v in range(fine.vertex_count) if v != p]
        if rest and len(set(rest)) > 1:
            out.append(p)
    return frozenset(out)


def has_cut_vertex(g: MetrizedGraph) -> bool:
    return bool(cut_vertices(g))


# -- valence reduction to a cubic graph ---------------------------------------


@dataclass(frozen=True)
class CubicStep:
    """One splitting step: which vertex was split and the tau bookkeeping."""

    vertex: int
    tau_before: float
    epsilon_step: float
    tau_after: float


def cubic_transform_trace(g: MetrizedGraph, epsilon: float) -> tuple[MetrizedGraph, tuple[CubicStep, ...]]:
    """cubic_transform plus the per-step tau trace (for bound checking).

    When vertex p's turn comes, its incidences are still its original
    ones in edge order: earlier steps move only other vertices' ends, and
    a chain edge touches p only if it was made for p.  So p's (edge, end)
    list is read once, before any split.
    """
    from . import invariants  # deferred: invariants imports this module

    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise NonPositiveLength(f"epsilon must be positive and finite, got {epsilon!r}")
    if abs(g.total_length - 1.0) > 1e-12:
        raise NotNormalized(f"total length is {g.total_length!r}, normalize first")
    if g.min_valence() < 3:
        raise ValenceBelowThree("every vertex must have valence >= 3")
    if has_cut_vertex(g):
        raise HasCutVertex("cut vertices (including loop base points) are not allowed here")

    # With every valence >= 3, the valences sum to 2e >= 3v, with equality
    # exactly when the graph is cubic already.
    steps_total = 2 * g.edge_count - 3 * g.vertex_count
    if steps_total == 0:
        return g, ()
    epsilon_unit = epsilon / steps_total

    edges = [list(e) for e in g.edges]
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for eid, (a, b, _) in enumerate(g.edges):
        incident[a].append((eid, 0))
        incident[b].append((eid, 1))
    trace: list[CubicStep] = []

    # Each step's graph and its tau carry into the next step, so every
    # graph is built and solved once, and the result is the graph last solved.
    current, tau_after = g, invariants.tau(g)
    for p, ends in enumerate(incident):
        for k in range(len(ends) - 3):
            tau_before = tau_after
            gap = 1.0 / 12.0 - tau_before
            eps_step = epsilon_unit / gap if gap >= 1e-12 else epsilon_unit
            move = ends[:2] if k == 0 else [(len(edges) - 1, 1), ends[k + 1]]
            new_vertex = g.vertex_count + len(trace)
            for eid, slot in move:
                edges[eid][slot] = new_vertex
            edges.append([new_vertex, p, eps_step])

            total = math.fsum(e[2] for e in edges)
            for e in edges:
                e[2] /= total

            current = MetrizedGraph(new_vertex + 1, tuple(tuple(e) for e in edges))
            tau_after = invariants.tau(current)
            trace.append(CubicStep(p, tau_before, eps_step, tau_after))

    return current, tuple(trace)


def cubic_transform(g: MetrizedGraph, epsilon: float) -> MetrizedGraph:
    """Split high-valence vertices until every valence is exactly 3.

    The input must be normalized, free of cut vertices, and have minimum
    valence 3.  Vertices are split in index order.  A vertex p of valence
    n takes n - 3 steps over its incidence list, read once in edge order:
    step 0 moves p's first two ends onto a new vertex joined back to p by
    a short chain edge, and step k moves the last chain edge's p-end and
    p's end k + 1 onto the next new vertex.  New vertices are numbered
    from v up, and each chain edge is appended as (new vertex, p).  After
    each step the graph is renormalized.  The step lengths are chosen so
    the total tau increase over the whole run is at most epsilon.
    """
    return cubic_transform_trace(g, epsilon)[0]


# -- collapsing edge connectivity 2 --------------------------------------------


def reduce_edge_connectivity_two(g: MetrizedGraph) -> MetrizedGraph:
    """Collapse 2-edge-cuts until edge connectivity is at least 3 (or one vertex).

    Pick the first non-loop edge e whose deletion creates bridges, contract
    all those bridges at once, and stretch e by their total length.  The
    contraction is one relabel: each vertex takes the index of its
    component under the bridges, components numbered by their lowest
    vertex, which is where contracting the bridges one at a time (each
    merging onto the lower index) would leave it.  The other edges keep
    their order.  Every cut of the result is a cut of the graph before, so
    the edge connectivity never falls below 2.  Total length, genus, and
    tau are preserved; the edge count only ever drops.  A graph that
    collapses all the way ends as a bouquet of loops on a single vertex.
    """
    start = edge_connectivity(g)
    if start != 2:
        raise NotApplicable("reduce_edge_connectivity_two", f"edge connectivity is {start}, need exactly 2")

    current = g
    while current.vertex_count > 1 and edge_connectivity(current) == 2:
        for chosen, (a, b, _) in enumerate(current.edges):
            if a != b and (found := delete_edge(current, chosen).bridges()):
                break
        else:
            break  # cannot happen while the connectivity is 2, but never loop forever on it
        # Bridge ids in the deleted-edge graph shift back up past the chosen edge.
        bridges = {j if j < chosen else j + 1 for j in found}
        labels = component_labels(current.vertex_count, [current.edges[j] for j in bridges])
        added = math.fsum(current.edges[j][2] for j in bridges)
        current = MetrizedGraph(max(labels) + 1, tuple(
            (labels[x], labels[y], length + added if j == chosen else length)
            for j, (x, y, length) in enumerate(current.edges) if j not in bridges
        ))
    return current
