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
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import transforms
from .circuit import (
    RANK_ONE_MIN_VERTICES,
    EdgeColumns,
    _deleted_edge_inverses,
    _grounded_inverse,
    _laplacian,
    all_edge_circuit_data,
    effective_resistance,
)
from .errors import BridgePresent, SameVertex, SingularSystem, TooLarge, TooSmall, WouldDisconnect
from .graphs import MetrizedGraph, graph_memo

BASE_AGREEMENT_TOL = 1e-9

# Cost caps for walks of the contraction lattice, whose size grows
# exponentially with the vertex count: the nested contraction sums stop at
# NESTED_VERTEX_CAP vertices, the exhaustive oracles (the contraction oracle
# for tau, the parallel-class minimum N) at ORACLE_VERTEX_CAP.
NESTED_VERTEX_CAP = 6
ORACLE_VERTEX_CAP = 7
# The node count of the lattice grows as the edge multiplicity to the power
# v - 2, so the vertex caps alone do not bound it: every walk refuses a
# lattice of more than LATTICE_NODE_CAP nodes before building it.  K6 has
# 1,636 nodes (verify_all 0.4 s) and the largest lattice of the benchmark's
# catalog graphs 603; K6 with every pair doubled has 21,211 (verify_all 21 s,
# 190 MB) and tripled 100,216.
LATTICE_NODE_CAP = 5000

# Surgeries, each held in the memo of the graph it cuts.  The deletion
# defect, the contraction lattice and the identity catalog all read them
# here, so each is built once per graph and edge; the public transforms
# stay unmemoized.
_contract = graph_memo(transforms.contract_edge)
_delete = graph_memo(transforms.delete_edge)
_loopify = graph_memo(transforms.identify_endpoints)
_da = graph_memo(transforms.double_adjusted)


def relative_gap(a: float, b: float) -> float:
    """|a - b| scaled by max(1, |a|, |b|); the residual convention used throughout."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class GraphProfile:
    """Everything the invariant formulas need about one graph at one base.

    The scalars and both weight tuples are computed from the base's
    EdgeColumns (circuit.all_edge_circuit_data).  The profile keeps them,
    read-only and outside eq, hash and repr, as ``columns``: the per-edge
    layout that the identity catalog and the per-edge invariants read.
    """

    base: int
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
    columns: EdgeColumns = field(repr=False, compare=False)


def graph_profile(g: MetrizedGraph, base: int = 0) -> GraphProfile:
    """The profile at one base: each sum is one math.fsum over its per-edge terms.

    The terms take one of two paths, picked by the circuit route.  When no
    edge has closed-form data (every graph under RANK_ONE_MIN_VERTICES) a
    scalar loop computes them in Python floats; otherwise they are computed
    column-wise in the same operation order, and numpy's elementwise
    arithmetic rounds each operation exactly as Python floats do.  So both
    paths give the same bits, and fsum is correctly rounded and so
    independent of term order.  Self-loops add their length to z, bridges
    theirs to r and y.  The base is checked before the memo is read, so
    graph_profile(g) and graph_profile(g, 0) are one entry.
    """
    return _profile_at(g, g.check_vertex(base))


@graph_memo
def _profile_at(g: MetrizedGraph, base: int) -> GraphProfile:
    columns = all_edge_circuit_data(g, base)
    if g.vertex_count < RANK_ONE_MIN_VERTICES or _deleted_edge_inverses(g)[1] is None:
        z, r, x, y, w_res, w_len = _scalar_terms(columns)
    else:
        z, r, x, y, w_res, w_len = _column_terms(columns)
    ell = g.total_length
    tau = ell / 12.0 - x / 6.0 + y / 6.0
    return GraphProfile(
        base=base, ell=ell, z=z, r=r, x=x, y=y, tau=tau,
        weight_resistance=w_res, weight_length=w_len, columns=columns,
    )


graph_profile.cache_info = _profile_at.cache_info


def _scalar_terms(columns: EdgeColumns):
    """z, r, x, y and both weight tuples, one edge at a time."""
    z_terms, r_terms, x_terms, y_terms, w_res, w_len = [], [], [], [], [], []
    for L, loop, bridge, R, arm_first, arm_second in zip(*(column.tolist() for column in columns)):
        if loop:
            z_terms.append(L)
            w_res.append(0.0)
            w_len.append(1.0)
        elif bridge:
            r_terms.append(L)
            y_terms.append(L)
            w_res.append(1.0)
            w_len.append(0.0)
        else:
            denom = L + R
            sq = denom * denom
            LL = L * L
            L75 = 0.75 * L
            gap = arm_first - arm_second
            gap_term = L75 * gap * gap
            z_terms.append(LL / denom)
            r_terms.append(L * R / denom)
            y_terms.append((0.25 * L * R * R + gap_term) / sq)
            x_terms.append((LL * R + L75 * R * R - gap_term) / sq)
            w_res.append(R / denom)
            w_len.append(L / denom)
    return (math.fsum(z_terms), math.fsum(r_terms), math.fsum(x_terms), math.fsum(y_terms),
            tuple(w_res), tuple(w_len))


def _column_terms(columns: EdgeColumns):
    """z, r, x, y and both weight tuples, each term computed for all plain edges at once."""
    loop, bridge = columns.loop, columns.bridge
    plain = ~(loop | bridge)
    L = columns.length[plain]
    R = columns.resistance[plain]
    gap = columns.arm_first[plain] - columns.arm_second[plain]
    denom = L + R
    sq = denom * denom
    # Shared subexpressions, each evaluated as the scalar formulas group it.
    LL = L * L
    L75 = 0.75 * L
    gap_term = L75 * gap * gap
    bridge_lengths = columns.length[bridge].tolist()
    z = math.fsum((LL / denom).tolist() + columns.length[loop].tolist())
    r = math.fsum((L * R / denom).tolist() + bridge_lengths)
    y = math.fsum(((0.25 * L * R * R + gap_term) / sq).tolist() + bridge_lengths)
    x = math.fsum(((LL * R + L75 * R * R - gap_term) / sq).tolist())
    w_res = bridge.astype(float)
    w_res[plain] = R / denom
    w_len = loop.astype(float)
    w_len[plain] = L / denom
    return z, r, x, y, tuple(w_res.tolist()), tuple(w_len.tolist())


# -- the headline scalars ------------------------------------------------------


def z_of(g: MetrizedGraph) -> float:
    """sum of L^2/(L+R); base-free."""
    return graph_profile(g).z


def tau(g: MetrizedGraph) -> float:
    """The tau constant of the graph.

    Independent of the base vertex used internally: the value is recomputed
    at a second, graph-dependent base, and SingularSystem is raised unless
    the two agree to BASE_AGREEMENT_TOL (1e-9 relative).
    """
    value = graph_profile(g).tau
    if g.vertex_count >= 2:
        other_base = 1 + (hash(g) % (g.vertex_count - 1)) if g.vertex_count > 2 else 1
        check = graph_profile(g, other_base).tau
        if not relative_gap(value, check) <= BASE_AGREEMENT_TOL:
            raise SingularSystem(
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
    w = w_of(g) if g.is_bridgeless() else None
    return InvariantSet(
        ell=prof.ell, genus=g.genus, tau=tau(g), x=prof.x, y=prof.y,
        z=prof.z, r=prof.r, w=w, base=base,
    )


# -- deletion defect K ---------------------------------------------------------


def _deletable(g: MetrizedGraph, i: int) -> int:
    """Edge index i, checked; WouldDisconnect if deleting it disconnects g."""
    i = g.check_edge(i)
    if i in g.bridges():
        raise WouldDisconnect(f"edge {i} is a bridge; K needs a connected deletion")
    return i


def K_definition(g: MetrizedGraph, i: int) -> float:
    """z(g) minus edge i's own z-term minus z(g - edge i).

    Measures how much the z-sum of the other edges grows when edge i is
    deleted.  Defined whenever the deletion leaves the graph connected
    (WouldDisconnect on a bridge); for a self-loop it is exactly 0.
    """
    i = _deletable(g, i)
    a, b, L = g.edges[i]
    if a == b:
        return 0.0
    prof = graph_profile(g)
    R = float(prof.columns.resistance[i])
    own = L * L / (L + R)
    return float(prof.z - own - z_of(_delete(g, i)))


def K_contraction_form(g: MetrizedGraph, i: int) -> float:
    """The same defect via contraction: (R/(L+R)) (z(contracted) - z(deleted))."""
    i = _deletable(g, i)
    a, b, _ = g.edges[i]
    if a == b:
        return 0.0
    weight = graph_profile(g).weight_resistance[i]
    return float(weight * (z_of(_contract(g, i)) - z_of(_delete(g, i))))


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
    return glued_crossing(g, transforms.identify_points(g, p, q), p, q)


def glued_crossing(g: MetrizedGraph, glued: MetrizedGraph, p: int, q: int) -> float:
    """A_pq(g, p, q) with the glued graph given: any graph equal in value to g with p, q glued."""
    resistance = effective_resistance(g, p, q)
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


def _spanning_trees(mult: list[list[int]], block: list[int]) -> int:
    """Spanning trees of the multigraph induced on block, exactly: a cofactor of its Laplacian.

    The determinant is taken by Bareiss elimination, whose divisions are
    exact in integers.
    """
    m = [[-mult[u][w] for w in block[1:]] for u in block[1:]]
    for i, u in enumerate(block[1:]):
        m[i][i] = sum(mult[u][w] for w in block)
    sign, prev, size = 1, 1, len(m)
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def lattice_size(g: MetrizedGraph) -> int:
    """Nodes of g's contraction lattice (the root counted), in exact integers, without building it.

    The nodes are the forests of at most v - 2 non-loop edges.  The forests
    inducing one vertex partition number the product of its blocks'
    spanning-tree counts, so the count is the sum of that product over the
    partitions into at least 2 blocks.  The sum runs over vertex subsets,
    the block of each subset's lowest vertex first: O(3^v) steps.
    """
    n = g.vertex_count
    if n < 3:
        return 1
    mult = [[0] * n for _ in range(n)]
    for a, b, _ in g.edges:
        if a != b:
            mult[a][b] += 1
            mult[b][a] += 1
    full = (1 << n) - 1
    trees = [0] * (full + 1)
    # partitions[s]: over the partitions of vertex set s, the sum of the
    # product of the blocks' spanning-tree counts.
    partitions = [1] + [0] * full
    for s in range(1, full + 1):
        trees[s] = _spanning_trees(mult, [v for v in range(n) if s >> v & 1])
        low = s & -s
        rest = sub = s ^ low
        while True:
            block = sub | low
            partitions[s] += trees[block] * partitions[s ^ block]
            if not sub:
                break
            sub = (sub - 1) & rest
    return partitions[full] - trees[full]


@graph_memo
def lattice_refusal(g: MetrizedGraph) -> str | None:
    """Why g's contraction lattice is not built, or None when it has at most LATTICE_NODE_CAP nodes.

    The exact count (lattice_size) is skipped when the number of edge sets
    of at most v - 2 non-loop edges is already within the cap, and when
    the subsets of one spanning tree alone, 2^(v-1) - 1 of them, exceed it.
    """
    v = g.vertex_count
    links = sum(a != b for a, b, _ in g.edges)
    if sum(math.comb(links, k) for k in range(v - 1)) <= LATTICE_NODE_CAP:
        return None
    if 2 ** (v - 1) - 1 > LATTICE_NODE_CAP:
        return f"contraction lattice has at least {2 ** (v - 1) - 1} nodes, capped at {LATTICE_NODE_CAP}"
    nodes = lattice_size(g)
    if nodes <= LATTICE_NODE_CAP:
        return None
    return f"contraction lattice has {nodes} nodes, capped at {LATTICE_NODE_CAP}"


@graph_memo
def contraction_lattice(g: MetrizedGraph) -> dict[frozenset, LatticeNode]:
    """All graphs reachable by contracting non-loop edges, down to 2 vertices, g itself left out.

    Keys are frozensets of contracted original edge indices.  The graph a set
    produces does not depend on the contraction order, so sequences collapse
    onto their underlying sets and every nested sum over sequences becomes a
    walk over this lattice.  The root (the empty set) is g, which the
    walks take from their caller (lattice_node): the lattice lives in g's
    memo, and a node holding g would keep g in a reference cycle.  Raises
    TooLarge when the lattice would have more than LATTICE_NODE_CAP nodes.
    """
    reason = lattice_refusal(g)
    if reason is not None:
        raise TooLarge(reason)
    nodes: dict[frozenset, LatticeNode] = {}
    frontier = [(frozenset(), lattice_node(g, nodes, frozenset()))]
    for _ in range(max(0, g.vertex_count - 2)):
        next_frontier = []
        for key, node in frontier:
            for j, (a, b, _) in enumerate(node.graph.edges):
                if a == b:
                    continue
                child_key = key | {node.original_ids[j]}
                if child_key in nodes:
                    continue
                child = nodes[child_key] = LatticeNode(
                    _contract(node.graph, j),
                    node.original_ids[:j] + node.original_ids[j + 1:],
                )
                next_frontier.append((child_key, child))
        frontier = next_frontier
    return nodes


def lattice_node(g: MetrizedGraph, lattice: dict[frozenset, LatticeNode], key: frozenset) -> LatticeNode:
    """The node of g's lattice at key; the root, g itself, for the empty key."""
    return lattice[key] if key else LatticeNode(g, tuple(range(g.edge_count)))


def nested_weighted_sum(
    g: MetrizedGraph, depths: Iterable[int], leaf_value: Callable[[LatticeNode], float]
) -> list[float]:
    """For each requested depth k, the sum over all length-k contraction
    sequences of R/(L+R) weight products times a value of the final graph.

    Weights are taken in the graph current at each step, so this is the
    ordered-sequence sum, evaluated without enumerating orders: the future of
    a partial contraction depends only on the set of edges contracted so far.
    One walk of the lattice, deepest nodes first, serves every depth;
    ``leaf_value`` is called once per node whose size is a requested depth,
    and each depth's sum at a node is one ``math.fsum`` over that node's
    children in edge order.  Returns the sums in the order of ``depths``.
    """
    depths = list(depths)
    top = max(0, g.vertex_count - 2)
    for depth in depths:
        if depth > top:
            raise TooLarge(f"cannot contract {depth} times on {g.vertex_count} vertices")
    wanted = sorted(set(depths))
    lattice = contraction_lattice(g)
    # Deepest nodes first, so every child's sums are ready when its parents read them.
    sums_at: dict[frozenset, dict[int, float]] = {}
    for key in sorted((k for k in lattice if len(k) <= wanted[-1]), key=len, reverse=True) + [frozenset()]:
        node = lattice_node(g, lattice, key)
        size = len(key)
        sums = {}
        if size in wanted:
            sums[size] = leaf_value(node)
        if size < wanted[-1]:
            prof = graph_profile(node.graph)
            children = [
                (w, sums_at[key | {orig}])
                for w, orig in zip(prof.weight_resistance, node.original_ids)
                if w != 0.0
            ]
            for depth in wanted:
                if depth > size:
                    sums[depth] = math.fsum(w * child[depth] for w, child in children)
        sums_at[key] = sums
    root = sums_at[frozenset()]
    return [root[depth] for depth in depths]


def admissible_leaf_nodes(g: MetrizedGraph) -> list[tuple[frozenset, LatticeNode]]:
    """The fully contracted (2-vertex) nodes of the lattice, sorted by key."""
    depth = g.vertex_count - 2
    lattice = contraction_lattice(g)
    if depth == 0:
        return [(frozenset(), lattice_node(g, lattice, frozenset()))]
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
    """w evaluated from its defining nested sum (exponential; capped at NESTED_VERTEX_CAP).

    Averages, over all admissible contraction sequences, the sum of
    L^3/(L+R)^2 over the edges of the final two-vertex graph.
    """
    if not g.is_bridgeless():
        raise BridgePresent("w is only defined on bridgeless graphs")
    if g.vertex_count > NESTED_VERTEX_CAP:
        raise TooLarge(f"nested form of w is capped at {NESTED_VERTEX_CAP} vertices")
    if g.vertex_count < 2:
        raise TooSmall("nested form of w needs at least 2 vertices")

    def leaf(node: LatticeNode) -> float:
        graph = node.graph
        return math.fsum(
            L if a == b else L ** 3 / ((L + R) * (L + R))
            for (a, b, L), R in zip(graph.edges, graph_profile(graph).columns.resistance.tolist())
        )

    depth = g.vertex_count - 2
    return nested_weighted_sum(g, [depth], leaf)[0] / math.factorial(depth)


# -- oracles -------------------------------------------------------------------

# Most vertices a subdivided graph may have in the integral oracles, which
# invert its dense grounded Laplacian: N vertices cost a few N x N float
# matrices and about N^3 flops.  The tests go up to about 1,530 (12 edges at
# 128 segments); at the cap, the unit triangle took 2.3 s on one BLAS thread
# of a 2-core x86-64 box and peaked at 230 MB.
INTEGRAL_VERTEX_CAP = 2500


def _quadrature_graph(g: MetrizedGraph, segments_per_edge: int) -> MetrizedGraph:
    """g with every edge cut into equal segments, refused above the size cap."""
    segments_per_edge = int(segments_per_edge)
    if segments_per_edge < 2:
        raise TooSmall("integral oracle needs at least 2 segments per edge")
    size = g.vertex_count + g.edge_count * (segments_per_edge - 1)
    if size > INTEGRAL_VERTEX_CAP:
        raise TooLarge(
            f"integral oracle at {segments_per_edge} segments per edge needs {size} vertices, "
            f"capped at {INTEGRAL_VERTEX_CAP}"
        )
    return transforms.subdivide(g, segments_per_edge)


def tau_oracle_integral(g: MetrizedGraph, segments_per_edge: int = 64) -> float:
    """tau by quadrature: a quarter of the integrated squared slope of r(x, v0).

    Each edge is cut into equal segments and the derivative is replaced by
    the chord slope.  The resistance function is quadratic along edges, so
    the chord slope is exact at segment midpoints and the error falls off
    as the square of the segment length.  Raises TooLarge when the
    subdivided graph would have more than INTEGRAL_VERTEX_CAP vertices.
    """
    fine = _quadrature_graph(g, segments_per_edge)
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
    vertex count, hence capped at ORACLE_VERTEX_CAP vertices.
    """
    if g.vertex_count > ORACLE_VERTEX_CAP:
        raise TooLarge(f"contraction oracle is capped at {ORACLE_VERTEX_CAP} vertices")
    lattice = contraction_lattice(g)
    # Deepest nodes first, so every child's value is ready when its parents read it.
    values: dict[frozenset, float] = {}
    for key in sorted(lattice, key=len, reverse=True) + [frozenset()]:
        node = lattice_node(g, lattice, key)
        v = node.graph.vertex_count
        if v <= 2:
            values[key] = _banana_tau(node.graph)
            continue
        prof = graph_profile(node.graph)
        acc = math.fsum(
            w * values[key | {orig}]
            for w, orig in zip(prof.weight_resistance, node.original_ids)
            if w != 0.0
        )
        values[key] = acc / (v - 2) - prof.z / (12.0 * (v - 2))
    return values[frozenset()]


def a_pq_oracle_integral(g: MetrizedGraph, p: int, q: int, segments_per_edge: int = 128) -> float:
    """The crossing integral behind A, by direct quadrature (validation path).

    Integrates j_x(p,q) times the squared slope of x -> j_p(x,q) over the
    graph.  Meant for small graphs (capped like tau_oracle_integral);
    accuracy is discretization-limited.
    """
    p = g.check_vertex(p)
    q = g.check_vertex(q)
    if p == q:
        raise SameVertex("A needs two distinct points")
    fine = _quadrature_graph(g, segments_per_edge)
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
