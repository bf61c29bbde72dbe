"""Surgeries on metrized graphs.

All operations return new graphs; inputs are never mutated, and no operation
reports how old labels map to new ones: the mapping follows from one
convention.  When two vertices merge, they collapse onto the smaller index
and every vertex above the larger index shifts down by one.  Vertex 0
therefore always survives as vertex 0, which is what lets invariant code
compare base-pointed quantities across a surgery without extra bookkeeping.
Edge order is preserved (minus removals), and edge lengths never change
unless the operation says so.  Sequences of contractions are walked as a
lattice of contracted edge sets in ``invariants.contraction_lattice``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cuts import INFINITE, edge_connectivity
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
from .graphs import MetrizedGraph, component_labels


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
    """Shrink edge i to a point, merging its endpoints (loops just vanish)."""
    i = g.check_edge(i)
    a, b, _ = g.edges[i]
    rest = g.edges[:i] + g.edges[i + 1:]
    if a == b:
        # Contracting a self-loop shrinks the loop to a point: the edge just
        # disappears and the genus drops by one.
        return MetrizedGraph._unchecked(g.vertex_count, rest)
    return _merged(g, a, b, rest)


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
    every effective resistance drops by a factor of 4.
    """
    edges: list[tuple[int, int, float]] = []
    for a, b, length in g.edges:
        half = 0.5 * length
        edges.append((a, b, half))
        edges.append((a, b, half))
    return _shrunk(g.vertex_count, edges)


def subdivide(g: MetrizedGraph, m: int) -> MetrizedGraph:
    """Split every edge into m equal sub-edges through fresh valence-2 vertices.

    Old edge i becomes new edges m*i .. m*i+m-1, oriented from the old first
    endpoint to the old second one.  New vertices are appended after the
    original ones, in edge order.
    """
    m = int(m)
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
    """cubic_transform plus the per-step tau trace (for bound checking)."""
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

    original_v = g.vertex_count
    original_e = g.edge_count
    if max(g.valence(p) for p in range(original_v)) == 3:
        return g, ()

    steps_total = 2 * original_e - 3 * original_v
    epsilon_unit = epsilon / steps_total

    edges = [list(e) for e in g.edges]
    vcount = g.vertex_count
    trace: list[CubicStep] = []

    def incidences(p: int) -> list[tuple[int, int]]:
        found = []
        for eid, (a, b, _) in enumerate(edges):
            if a == p:
                found.append((eid, 0))
            if b == p:
                found.append((eid, 1))
        return found

    def snapshot() -> MetrizedGraph:
        return MetrizedGraph(vcount, tuple(tuple(e) for e in edges))

    for p in range(original_v):
        chain_edge: int | None = None
        while len(incidences(p)) >= 4:
            current = snapshot()
            tau_before = invariants.tau(current)
            gap = 1.0 / 12.0 - tau_before
            eps_step = epsilon_unit / gap if gap >= 1e-12 else epsilon_unit

            dirs = incidences(p)
            if chain_edge is None:
                move = dirs[:2]
            else:
                carried = next(d for d in dirs if d[0] == chain_edge)
                first_original = next(d for d in dirs if d[0] != chain_edge)
                move = [carried, first_original]

            new_vertex = vcount
            vcount += 1
            for eid, slot in move:
                edges[eid][slot] = new_vertex
            edges.append([new_vertex, p, eps_step])
            chain_edge = len(edges) - 1

            total = math.fsum(e[2] for e in edges)
            for e in edges:
                e[2] /= total

            after = snapshot()
            trace.append(CubicStep(p, tau_before, eps_step, invariants.tau(after)))

    return snapshot(), tuple(trace)


def cubic_transform(g: MetrizedGraph, epsilon: float) -> MetrizedGraph:
    """Split high-valence vertices until every valence is exactly 3.

    The input must be normalized, free of cut vertices, and have minimum
    valence 3.  At a vertex of valence n, the first two incident directions
    (ascending edge index) move onto a new vertex joined back by a short
    edge; each later step carries that short edge plus the next original
    direction onto the next new vertex, n - 3 steps in all.  After each step
    the graph is renormalized.  The step lengths are chosen so the total tau
    increase over the whole run is at most epsilon.
    """
    return cubic_transform_trace(g, epsilon)[0]


# -- collapsing edge connectivity 2 --------------------------------------------


def reduce_edge_connectivity_two(g: MetrizedGraph) -> MetrizedGraph:
    """Collapse 2-edge-cuts until edge connectivity is at least 3 (or one vertex).

    Pick an edge whose deletion creates bridges, contract all those bridges,
    and stretch the picked edge by their total length.  Total length, genus,
    and tau are preserved; the edge count only ever drops.  A graph that
    collapses all the way ends as a bouquet of loops on a single vertex.
    """
    start = edge_connectivity(g)
    if start is INFINITE or start != 2:
        raise NotApplicable("reduce_edge_connectivity_two", f"edge connectivity is {start}, need exactly 2")

    current = g
    while True:
        if current.vertex_count == 1:
            return current
        lam = edge_connectivity(current)
        if lam is INFINITE or lam >= 3:
            return current

        chosen = None
        bridge_ids: list[int] = []
        for i, (a, b, _) in enumerate(current.edges):
            if a == b:
                continue
            removed = delete_edge(current, i)
            found = removed.bridges()
            if found:
                chosen = i
                # Bridge ids in the deleted-edge graph shift back up past i.
                bridge_ids = sorted(j if j < i else j + 1 for j in found)
                break
        if chosen is None:
            # Cannot happen while lam == 2, but never loop forever on it.
            return current

        added = math.fsum(current.edges[j][2] for j in bridge_ids)
        work = current
        alive = list(range(work.edge_count))
        for original in bridge_ids:
            pos = alive.index(original)
            work = contract_edge(work, pos)
            alive.pop(pos)
        target = alive.index(chosen)
        stretched = list(work.edges)
        a, b, length = stretched[target]
        stretched[target] = (a, b, length + added)
        current = MetrizedGraph(work.vertex_count, tuple(stretched))
