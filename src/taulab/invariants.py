"""Scalar invariants of a metrized graph built from effective resistance.

For each edge of length L, let R be the effective resistance between its
endpoints once the edge is removed, and split R into the three star arms
seen from the endpoints and a base vertex.  Everything in this module is a
sum of per-edge terms in these quantities:

    z = sum L^2 / (L + R)
    r = sum L R / (L + R)              (r = x + y)
    y = sum [ L R^2 / 4 + 3 L (arm gap)^2 / 4 ] / (L + R)^2
    x = sum [ L^2 R + 3 L R^2 / 4 - 3 L (arm gap)^2 / 4 ] / (L + R)^2
    tau = ell / 12 - x / 6 + y / 6

where the arm gap is (arm at first endpoint) - (arm at second endpoint).
Bridges and self-loops are exact limits, applied as explicit branches:
a bridge (R infinite) contributes 0 to z and x and its full length to r and
y; a self-loop (R = 0) contributes its length to z and nothing else.

Two independent oracles recompute tau without these formulas: a quadrature
of the squared slope of the resistance function, and a recursion that
contracts edges down to two-vertex graphs with a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import transforms
from .circuit import (
    EdgeCircuitData,
    INFINITE,
    _grounded_inverse,
    _laplacian,
    all_edge_circuit_data,
    effective_resistance,
    is_infinite,
)
from .errors import BridgePresent, SameVertex, TooLarge, TooSmall
from .graphs import MetrizedGraph

BASE_AGREEMENT_TOL = 1e-9


def relative_gap(a: float, b: float) -> float:
    """|a - b| scaled by max(1, |a|, |b|); the residual convention used throughout."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class GraphProfile:
    """Everything the invariant formulas need about one graph at one base."""

    base: int
    edge_data: tuple[EdgeCircuitData, ...]
    ell: float
    z: float
    r: float
    x: float
    y: float
    tau: float
    # R/(L+R) and L/(L+R) per edge, with the limits baked in:
    # a self-loop weighs (0, 1), a bridge weighs (1, 0).
    weight_resistance: tuple[float, ...]
    weight_length: tuple[float, ...]


@lru_cache(maxsize=16384)
def graph_profile(g: MetrizedGraph, base: int = 0) -> GraphProfile:
    base = g.check_vertex(base)
    data = all_edge_circuit_data(g, base)

    z_terms = []
    r_terms = []
    x_terms = []
    y_terms = []
    w_res = []
    w_len = []
    for d in data:
        L = d.length
        if d.is_loop:
            z_terms.append(L)
            w_res.append(0.0)
            w_len.append(1.0)
        elif d.is_bridge:
            r_terms.append(L)
            y_terms.append(L)
            w_res.append(1.0)
            w_len.append(0.0)
        else:
            R = d.resistance
            denom = L + R
            gap = d.arm_first - d.arm_second
            z_terms.append(L * L / denom)
            r_terms.append(L * R / denom)
            sq = denom * denom
            y_terms.append((0.25 * L * R * R + 0.75 * L * gap * gap) / sq)
            x_terms.append((L * L * R + 0.75 * L * R * R - 0.75 * L * gap * gap) / sq)
            w_res.append(R / denom)
            w_len.append(L / denom)

    ell = g.total_length
    z = math.fsum(z_terms)
    r = math.fsum(r_terms)
    x = math.fsum(x_terms)
    y = math.fsum(y_terms)
    tau = ell / 12.0 - x / 6.0 + y / 6.0
    return GraphProfile(
        base=base, edge_data=data, ell=ell, z=z, r=r, x=x, y=y, tau=tau,
        weight_resistance=tuple(w_res), weight_length=tuple(w_len),
    )


# -- the headline scalars ------------------------------------------------------


def z_of(g: MetrizedGraph) -> float:
    """sum of L^2/(L+R); base-free."""
    return graph_profile(g).z


def xy_of(g: MetrizedGraph, base: int = 0) -> tuple[float, float]:
    """The pair (x, y) computed at the given base vertex."""
    prof = graph_profile(g, base)
    return prof.x, prof.y


def _tau(g: MetrizedGraph) -> float:
    """tau without the cross-base self-check; internal hot path."""
    return graph_profile(g).tau


def tau(g: MetrizedGraph) -> float:
    """The tau constant of the graph.

    Independent of the base vertex used internally; under ``__debug__`` the
    value is recomputed at a second, graph-dependent base and the two must
    agree to 1e-9.
    """
    value = graph_profile(g).tau
    if __debug__ and g.vertex_count >= 2:
        other_base = 1 + (hash(g) % (g.vertex_count - 1)) if g.vertex_count > 2 else 1
        check = graph_profile(g, other_base).tau
        assert relative_gap(value, check) <= BASE_AGREEMENT_TOL, (
            f"tau disagrees across base vertices: {value!r} at 0 vs {check!r} at {other_base}"
        )
    return value


@dataclass(frozen=True)
class InvariantSet:
    """One graph's scalar invariants, computed in a single pass."""

    ell: float
    genus: int
    tau: float
    x: float
    y: float
    z: float
    r: float
    w: float | None
    base: int


def invariant_set(g: MetrizedGraph, base: int = 0) -> InvariantSet:
    prof = graph_profile(g, base)
    w = None
    if g.is_bridgeless():
        w = (g.vertex_count - 1) * prof.z - prof.x
    return InvariantSet(
        ell=prof.ell, genus=g.genus, tau=tau(g), x=prof.x, y=prof.y,
        z=prof.z, r=prof.r, w=w, base=base,
    )


# -- deletion defect K ---------------------------------------------------------


def K_definition(g: MetrizedGraph, i: int) -> float:
    """z(g) minus edge i's own z-term minus z(g - edge i).

    Measures how much the z-sum of the other edges grows when edge i is
    deleted.  Defined whenever the deletion leaves the graph connected; for
    a self-loop it is exactly 0.
    """
    i = g.check_edge(i)
    prof = graph_profile(g)
    d = prof.edge_data[i]
    if d.is_loop:
        return 0.0
    own = d.length * d.length / (d.length + d.resistance)
    return float(prof.z - own - z_of(transforms.delete_edge(g, i)))


def K_contraction_form(g: MetrizedGraph, i: int) -> float:
    """The same defect via contraction: (R/(L+R)) (z(contracted) - z(deleted))."""
    i = g.check_edge(i)
    prof = graph_profile(g)
    if prof.edge_data[i].is_loop:
        return 0.0
    weight = prof.weight_resistance[i]
    return float(weight * (z_of(transforms.contract_edge(g, i)) - z_of(transforms.delete_edge(g, i))))


def K_of(g: MetrizedGraph, i: int) -> float:
    """The deletion defect of edge i on a bridgeless graph (non-negative)."""
    if not g.is_bridgeless():
        raise BridgePresent("K is only defined on bridgeless graphs")
    return K_definition(g, i)


# -- the crossing integral A ---------------------------------------------------


def A_pq(g: MetrizedGraph, p: int, q: int) -> float:
    """The tau defect of gluing p to q, packaged as a crossing integral.

    Computed through the exact relation
    A = r(p,q) (tau(g with p,q glued) - tau(g) + r(p,q)/6); always in
    [0, r(p,q) (r_max - r(p,q)/2)] where r_max is the resistance from the
    gluing points.  The direct quadrature lives in a_pq_oracle_integral.
    """
    p = g.check_vertex(p)
    q = g.check_vertex(q)
    if p == q:
        raise SameVertex("A needs two distinct points")
    resistance = effective_resistance(g, p, q)
    glued = transforms.identify_points(g, p, q)
    return float(resistance * (tau(glued) - tau(g) + resistance / 6.0))


# -- two-vertex closed form and the contraction lattice -------------------------


def banana_stats(g: MetrizedGraph) -> tuple[int, float]:
    """(count, harmonic length) of the non-loop parallel class of a 2-vertex graph."""
    if g.vertex_count > 2:
        raise TooLarge("banana_stats expects exactly 2 vertices")
    if g.vertex_count < 2:
        raise TooSmall("banana_stats expects exactly 2 vertices")
    inverse_sum = 0.0
    count = 0
    for a, b, length in g.edges:
        if a != b:
            count += 1
            inverse_sum += 1.0 / length
    return count, 1.0 / inverse_sum


def _banana_tau(g: MetrizedGraph) -> float:
    """Closed-form tau for graphs on one or two vertices (loops included)."""
    ell = g.total_length
    if g.vertex_count == 1:
        return ell / 12.0
    count, harmonic = banana_stats(g)
    return ell / 12.0 - (count - 2) * harmonic / 6.0


@dataclass(frozen=True)
class LatticeNode:
    """A partially contracted graph, remembering which original edges survive."""

    graph: MetrizedGraph
    original_ids: tuple[int, ...]


@lru_cache(maxsize=64)
def contraction_lattice(g: MetrizedGraph) -> dict[frozenset, LatticeNode]:
    """All graphs reachable by contracting non-loop edges, down to 2 vertices.

    Keys are frozensets of contracted original edge indices.  The graph a set
    produces does not depend on the contraction order, so sequences collapse
    onto their underlying sets and every nested sum over sequences becomes a
    walk over this lattice.
    """
    nodes: dict[frozenset, LatticeNode] = {
        frozenset(): LatticeNode(g, tuple(range(g.edge_count)))
    }
    frontier = [frozenset()]
    for _ in range(max(0, g.vertex_count - 2)):
        next_frontier = []
        for key in frontier:
            node = nodes[key]
            for j, (a, b, _) in enumerate(node.graph.edges):
                if a == b:
                    continue
                child_key = key | {node.original_ids[j]}
                if child_key in nodes:
                    continue
                nodes[child_key] = LatticeNode(
                    transforms.contract_edge(node.graph, j),
                    node.original_ids[:j] + node.original_ids[j + 1:],
                )
                next_frontier.append(child_key)
        frontier = next_frontier
    return nodes


def nested_weighted_sum(g: MetrizedGraph, depth: int, leaf_value: Callable[[LatticeNode], float]) -> float:
    """Sum over all length-``depth`` contraction sequences of R/(L+R) weight
    products times a value of the final graph.

    Weights are taken in the graph current at each step, so this is the
    ordered-sequence sum, evaluated without enumerating orders: the future of
    a partial contraction depends only on the set of edges contracted so far.
    """
    if depth > max(0, g.vertex_count - 2):
        raise TooLarge(f"cannot contract {depth} times on {g.vertex_count} vertices")
    lattice = contraction_lattice(g)
    memo: dict[frozenset, float] = {}

    def value(key: frozenset) -> float:
        if len(key) == depth:
            return leaf_value(lattice[key])
        if key in memo:
            return memo[key]
        node = lattice[key]
        prof = graph_profile(node.graph)
        total = math.fsum(
            prof.weight_resistance[j] * value(key | {orig})
            for j, orig in enumerate(node.original_ids)
            if prof.weight_resistance[j] != 0.0
        )
        memo[key] = total
        return total

    return value(frozenset())


def admissible_leaf_nodes(g: MetrizedGraph) -> list[tuple[frozenset, LatticeNode]]:
    """The fully contracted (2-vertex) nodes of the lattice, sorted by key."""
    depth = g.vertex_count - 2
    lattice = contraction_lattice(g)
    found = [(key, node) for key, node in lattice.items() if len(key) == depth]
    found.sort(key=lambda item: sorted(item[0]))
    return found


def w_of(g: MetrizedGraph) -> float:
    """The contraction weight w with (v-1) z = w + x; bridgeless graphs only."""
    if not g.is_bridgeless():
        raise BridgePresent("w is only defined on bridgeless graphs")
    prof = graph_profile(g)
    return (g.vertex_count - 1) * prof.z - prof.x


def w_nested(g: MetrizedGraph) -> float:
    """w evaluated from its defining nested sum (exponential; capped at 6 vertices).

    Averages, over all admissible contraction sequences, the sum of
    L^3/(L+R)^2 over the edges of the final two-vertex graph.
    """
    if not g.is_bridgeless():
        raise BridgePresent("w is only defined on bridgeless graphs")
    if g.vertex_count > 6:
        raise TooLarge("nested form of w is capped at 6 vertices")
    if g.vertex_count < 2:
        raise TooSmall("nested form of w needs at least 2 vertices")

    def leaf(node: LatticeNode) -> float:
        prof = graph_profile(node.graph)
        terms = []
        for d in prof.edge_data:
            if d.is_loop:
                terms.append(d.length)
            else:
                denom = d.length + d.resistance
                terms.append(d.length ** 3 / (denom * denom))
        return math.fsum(terms)

    depth = g.vertex_count - 2
    return nested_weighted_sum(g, depth, leaf) / math.factorial(depth)


# -- oracles -------------------------------------------------------------------


def tau_oracle_integral(g: MetrizedGraph, segments_per_edge: int = 64) -> float:
    """tau by quadrature: a quarter of the integrated squared slope of r(x, v0).

    Each edge is cut into equal segments and the derivative is replaced by
    the chord slope.  The resistance function is quadratic along edges, so
    the chord slope is exact at segment midpoints and the error falls off
    as the square of the segment length.
    """
    segments_per_edge = int(segments_per_edge)
    if segments_per_edge < 2:
        raise TooSmall("integral oracle needs at least 2 segments per edge")
    fine = transforms.subdivide(g, segments_per_edge)
    K = _grounded_inverse(_laplacian(fine.vertex_count, fine.edges))
    r_to_origin = np.diag(K)
    total = math.fsum(
        (r_to_origin[b] - r_to_origin[a]) ** 2 / h
        for a, b, h in fine.edges
    )
    return total / 4.0


def tau_oracle_contraction(g: MetrizedGraph) -> float:
    """tau by recursion on contractions, with a two-vertex closed form.

    For three or more vertices, tau is the weighted average of the tau values
    of all single-edge contractions (weight R/(L+R)) minus z/12, scaled by
    1/(v-2).  The x/y formulas are never consulted.  Exponential in the
    vertex count, hence capped at 7 vertices.
    """
    if g.vertex_count > 7:
        raise TooLarge("contraction oracle is capped at 7 vertices")
    lattice = contraction_lattice(g)
    memo: dict[frozenset, float] = {}

    def value(key: frozenset) -> float:
        node = lattice[key]
        graph = node.graph
        v = graph.vertex_count
        if v <= 2:
            return _banana_tau(graph)
        if key in memo:
            return memo[key]
        prof = graph_profile(graph)
        acc = math.fsum(
            prof.weight_resistance[j] * value(key | {orig})
            for j, orig in enumerate(node.original_ids)
            if prof.weight_resistance[j] != 0.0
        )
        result = acc / (v - 2) - prof.z / (12.0 * (v - 2))
        memo[key] = result
        return result

    return value(frozenset())


def a_pq_oracle_integral(g: MetrizedGraph, p: int, q: int, segments_per_edge: int = 128) -> float:
    """The crossing integral behind A, by direct quadrature (validation path).

    Integrates j_x(p,q) times the squared slope of x -> j_p(x,q) over the
    graph.  Meant for small graphs; accuracy is discretization-limited.
    """
    p = g.check_vertex(p)
    q = g.check_vertex(q)
    if p == q:
        raise SameVertex("A needs two distinct points")
    segments_per_edge = int(segments_per_edge)
    if segments_per_edge < 2:
        raise TooSmall("integral oracle needs at least 2 segments per edge")
    fine = transforms.subdivide(g, segments_per_edge)
    K = _grounded_inverse(_laplacian(fine.vertex_count, fine.edges))
    diag = np.diag(K)
    r_p = diag[p] + diag - 2.0 * K[p]
    r_q = diag[q] + diag - 2.0 * K[q]
    r_pq = r_p[q]
    # j_x(p, q): potential at p when unit current runs q -> x.
    j_cross = 0.5 * (r_p + r_q - r_pq)
    # j_p(x, q): potential at x when unit current runs q -> p.
    j_pot = 0.5 * (r_p + r_pq - r_q)
    total = math.fsum(
        0.5 * (j_cross[a] + j_cross[b]) * (j_pot[b] - j_pot[a]) ** 2 / h
        for a, b, h in fine.edges
    )
    return total
