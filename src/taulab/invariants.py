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
from typing import Callable, Iterable, NamedTuple, Sequence

from . import transforms
from .circuit import (
    EdgeColumns,
    _edge_view,
    _grounded_inverse,
    _laplacian,
    all_edge_circuit_data,
    closed_form,
    effective_resistance,
)
from .errors import BridgePresent, SameVertex, SingularSystem, TooLarge, TooSmall, WouldDisconnect
from .graphs import MetrizedGraph, _bridge_ids, _index, graph_memo

BASE_AGREEMENT_TOL = 1e-9

# The one size guard of every walk of the contraction lattice, whose node
# count grows exponentially with the vertex count and as the edge
# multiplicity to the power v - 2: the builder stops before it would make
# node LATTICE_NODE_CAP + 1.  The 2^(v-1) - 1 subsets of one spanning tree
# are always nodes, so an accepted lattice has at most 13 vertices.  K6 has
# 1,636 nodes (verify_all 0.4 s) and the largest lattice of the benchmark's
# catalog graphs 603; K6 with every pair doubled has 21,211 (unguarded,
# verify_all took 21 s and 190 MB) and tripled 100,216.
LATTICE_NODE_CAP = 5000

# The catalog's surgeries.  Only edge_record and doubled_tau call these
# memos, and each calls them on a throwaway copy of g (_scope), so every
# surgery graph is held by that copy's memo and freed once its floats are
# read; the memos still count each real build.  The contraction lattice
# and the public transforms stay unmemoized.
_contract = graph_memo(transforms.contract_edge)
_delete = graph_memo(transforms.delete_edge)
_loopify = graph_memo(transforms.identify_endpoints)
_da = graph_memo(transforms.double_adjusted)


@dataclass(frozen=True)
class GraphProfile:
    """Everything the invariant formulas need about one graph at one base.

    The scalars and both weight columns come from the base's EdgeColumns
    (circuit.all_edge_circuit_data), kept as ``columns``: the layout the
    identity catalog and the per-edge invariants read.  The three per-edge
    fields, tuples of Python floats on the all-GTH route and read-only
    float64 arrays on the closed-form route, stay out of eq, hash and repr.
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
    weight_resistance: Sequence[float] = field(repr=False, compare=False)
    weight_length: Sequence[float] = field(repr=False, compare=False)
    columns: EdgeColumns = field(repr=False, compare=False)


def graph_profile(g: MetrizedGraph, base: int = 0) -> GraphProfile:
    """The profile at one base: each sum is one math.fsum over its per-edge terms.

    The terms take one of two paths, picked by the circuit route
    (circuit.closed_form).  On the all-GTH route a scalar loop computes
    them in Python floats; on the closed-form route they are computed
    column-wise in the same operation order, and numpy's elementwise
    arithmetic rounds each operation exactly as Python floats do.  So both
    paths give the same bits, and fsum is correctly rounded and so
    independent of term order; each is the faster one on its route.  The
    closed-form route's weights and columns stay float64 arrays, read-only.
    Self-loops add their length to z, bridges theirs to r and y.  The base
    is checked before the memo is read, so graph_profile(g) and
    graph_profile(g, 0) are one entry.
    """
    return _profile_at(g, g.check_vertex(base))


@graph_memo
def _profile_at(g: MetrizedGraph, base: int) -> GraphProfile:
    terms = _scalar_terms if closed_form(g) is None else _column_terms
    columns = all_edge_circuit_data(g, base)
    z, r, x, y, w_res, w_len = terms(g, columns)
    ell = g.total_length
    tau = ell / 12.0 - x / 6.0 + y / 6.0
    return GraphProfile(
        base=base, ell=ell, z=z, r=r, x=x, y=y, tau=tau,
        weight_resistance=w_res, weight_length=w_len, columns=columns,
    )


graph_profile.cache_info = _profile_at.cache_info


def _scalar_terms(g: MetrizedGraph, columns: EdgeColumns):
    """z, r, x, y and both weight tuples, one edge at a time."""
    bridges = g.bridges()
    z_terms, r_terms, x_terms, y_terms, w_res, w_len = [], [], [], [], [], []
    for i, ((a, b, L), R, arm_first, arm_second) in enumerate(zip(g.edges, *columns)):
        if a == b:
            z_terms.append(L)
            w_res.append(0.0)
            w_len.append(1.0)
        elif i in bridges:
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


@graph_memo
def _edge_arrays(g: MetrizedGraph):
    """Everything base-free that _column_terms reads, built once per graph.

    The plain-edge mask (neither loop nor bridge), the plain edges' L,
    L * L and 0.75 * L, the loop and bridge lengths as lists, and both
    weight columns with their limits set at loops and bridges, which each
    base copies before it fills in the plain edges.
    """
    import numpy as np

    a, b, length = _edge_view(g)
    loop = a == b
    bridge = np.zeros(g.edge_count, dtype=bool)
    bridge[list(g.bridges())] = True
    plain = ~(loop | bridge)
    L = length[plain]
    return (plain, L, L * L, 0.75 * L, length[loop].tolist(), length[bridge].tolist(),
            bridge.astype(float), loop.astype(float))


def _column_terms(g: MetrizedGraph, columns: EdgeColumns):
    """z, r, x, y and both weight columns, each term for all plain edges at once; every array left read-only."""
    plain, L, LL, L75, loop_lengths, bridge_lengths, w_res, w_len = _edge_arrays(g)
    R = columns.resistance[plain]
    gap = columns.arm_first[plain] - columns.arm_second[plain]
    denom = L + R
    sq = denom * denom
    # Shared subexpressions, each evaluated as the scalar formulas group it.
    gap_term = L75 * gap * gap
    z = math.fsum((LL / denom).tolist() + loop_lengths)
    r = math.fsum((L * R / denom).tolist() + bridge_lengths)
    y = math.fsum(((0.25 * L * R * R + gap_term) / sq).tolist() + bridge_lengths)
    x = math.fsum(((LL * R + L75 * R * R - gap_term) / sq).tolist())
    w_res = w_res.copy()
    w_res[plain] = R / denom
    w_len = w_len.copy()
    w_len[plain] = L / denom
    for column in (*columns, w_res, w_len):
        column.flags.writeable = False
    return z, r, x, y, w_res, w_len


# -- the headline scalars ------------------------------------------------------


def tau(g: MetrizedGraph) -> float:
    """The tau constant of the graph.

    Independent of the base vertex used internally: the value is recomputed
    at a second, graph-dependent base, and SingularSystem is raised unless
    the two agree to BASE_AGREEMENT_TOL relative to the larger of them,
    with no floor: tau is positive on every graph with an edge, so the
    check does not change when all lengths are scaled.
    """
    value = graph_profile(g).tau
    if g.vertex_count >= 2:
        other_base = 1 + hash(g) % (g.vertex_count - 1)
        check = graph_profile(g, other_base).tau
        if not abs(value - check) <= BASE_AGREEMENT_TOL * max(abs(value), abs(check)):
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
    R = prof.columns.resistance[i]
    own = L * L / (L + R)
    return float(prof.z - own - edge_record(g, i).deleted.z)


def K_contraction_form(g: MetrizedGraph, i: int) -> float:
    """The same defect via contraction: (R/(L+R)) (z(contracted) - z(deleted))."""
    i = _deletable(g, i)
    a, b, _ = g.edges[i]
    if a == b:
        return 0.0
    weight = graph_profile(g).weight_resistance[i]
    record = edge_record(g, i)
    return float(weight * (record.contracted.z - record.deleted.z))


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
    return resistance * (tau(glued) - tau(g) + resistance / 6.0)


# -- one record of floats per edge ----------------------------------------------


class Scalars(NamedTuple):
    """The profile scalars at base 0 of one surgery graph."""

    x: float
    y: float
    z: float
    r: float
    tau: float


class EdgeRecord(NamedTuple):
    """Everything the identity catalog reads of one edge e = (a, b)'s surgeries."""

    deleted: Scalars | None  # G - e; None at a bridge
    contracted: Scalars  # G/e
    looped_tau: float  # tau of G with a and b glued, e kept as a loop
    crossing: float | None  # A(G - e; a, b); 0 at a loop, None at a bridge
    doubled_tau: float | None  # tau of DA(G - e); None unless G is bridgeless
    doubled_crossing: float | None  # A(DA(G - e); a, b); 0 at a loop, likewise None


def _scalars(h: MetrizedGraph) -> Scalars:
    prof = graph_profile(h)
    return Scalars(prof.x, prof.y, prof.z, prof.r, prof.tau)


def _scope(g: MetrizedGraph) -> MetrizedGraph:
    """A throwaway copy of g with its bridges handed down, whose memo holds the surgeries cut from it."""
    scope = MetrizedGraph._unchecked(g.vertex_count, g.edges)
    _bridge_ids.seed(scope, g.bridges())
    return scope


@graph_memo
def edge_record(g: MetrizedGraph, i: int) -> EdgeRecord:
    """Edge i's record: its surgeries' floats, read as the catalog reads them, bit for bit.

    The one place that decides which surgery graphs exist for an edge and
    how long they live: each is cut from a throwaway copy of g and freed
    when this returns, so g's memo keeps floats only.  Gluing a to b in
    G - e gives G/e as a value, and in DA(G - e) it gives DA(G/e), so the
    crossings glue through the contraction.  A loop's looped graph is g
    itself, read from g, since identify_endpoints returns its input there.
    """
    scope = _scope(g)
    a, b, _ = g.edges[i]
    contracted = _contract(scope, i)
    looped = graph_profile(g if a == b else _loopify(scope, i)).tau
    if i in g.bridges():
        return EdgeRecord(None, _scalars(contracted), looped, None, None, None)
    deleted = _delete(scope, i)
    crossing = 0.0 if a == b else glued_crossing(deleted, contracted, a, b)
    doubled = doubled_crossing = None
    if g.is_bridgeless():
        doubled = graph_profile(_da(deleted)).tau
        doubled_crossing = 0.0 if a == b else glued_crossing(_da(deleted), _da(contracted), a, b)
    return EdgeRecord(_scalars(deleted), _scalars(contracted), looped, crossing, doubled, doubled_crossing)


@graph_memo
def doubled_tau(g: MetrizedGraph) -> float:
    """tau of DA(g) at base 0, with DA(g) freed once read."""
    return graph_profile(_da(_scope(g))).tau


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


def lattice_refusal(g: MetrizedGraph) -> str | None:
    """Why g's contraction lattice is not built, or None when it has at most LATTICE_NODE_CAP nodes.

    Asks contraction_lattice, so the one memoized build answers both.
    """
    try:
        contraction_lattice(g)
    except TooLarge as exc:
        return str(exc)
    return None


def contraction_lattice(g: MetrizedGraph) -> tuple[tuple, ...]:
    """All graphs reachable by contracting non-loop edges, down to 2 vertices, as a DAG.

    A tuple of nodes (key, graph, children), the root first and then in
    depth order, so a walk from the end reaches every child before its
    parents.  The key is the frozenset of contracted original edge indices:
    the graph a set produces does not depend on the contraction order, so
    sequences collapse onto their underlying sets and every nested sum over
    sequences becomes one walk.  Within a depth the keys come in
    lexicographic order of their sorted indices: a node appends its
    children in edge order, and a key is first reached from itself minus
    its largest index, the lexicographically first of its parents.
    children[j] is the position of the node that contracting the node
    graph's edge j reaches, None at a self-loop; the deepest nodes have
    none.  The root's graph is None: it is g, and the lattice lives in g's
    memo, where a node holding g would keep g in a reference cycle.  Raises
    TooLarge when the lattice has more than LATTICE_NODE_CAP nodes; the
    refusal is memoized like the lattice.
    """
    lattice = _lattice(g)
    if isinstance(lattice, str):
        raise TooLarge(lattice)
    return lattice


@graph_memo
def _lattice(g: MetrizedGraph) -> tuple[tuple, ...] | str:
    """contraction_lattice(g), or the reason it is refused.

    The only function that forms keys.  The nodes are the forests of at
    most v - 2 non-loop edges.  The keys are walked first, each with a
    label per vertex of g, the lowest vertex of its block, so an edge is a
    loop at a node when its two ends share a label; the walk stops before
    it would make node LATTICE_NODE_CAP + 1, and a refused lattice builds
    no graph.  An accepted one then builds each node's graph from the node
    that first reached it, the root's children from g itself, by
    transforms.contract_edge at every depth: the lattice alone holds them.
    """
    v = g.vertex_count
    depth = max(0, v - 2)
    # Each node: its key, its vertex labels, and the parent position and
    # the parent's edge whose contraction first reached it.
    found = [(frozenset(), tuple(range(v)), None, None)]
    position = {frozenset(): 0}
    children_of = []
    # found grows as the loop runs: each node's new children join its end.
    for at, (key, labels, _, _) in enumerate(found):
        children = []
        if len(key) < depth:
            # A contraction keeps edge order, so the node's edges are the
            # original edges outside its key, in order.
            alive = (i for i in range(g.edge_count) if i not in key)
            for j, orig in enumerate(alive):
                a, b, _ = g.edges[orig]
                a, b = labels[a], labels[b]
                if a == b:
                    children.append(None)
                    continue
                child_key = key | {orig}
                if child_key not in position:
                    if len(found) == LATTICE_NODE_CAP:
                        return (f"contraction lattice has more than {LATTICE_NODE_CAP} nodes, "
                                f"capped at {LATTICE_NODE_CAP}")
                    position[child_key] = len(found)
                    low = min(a, b)
                    found.append((child_key, tuple(low if x in (a, b) else x for x in labels), at, j))
                children.append(position[child_key])
        children_of.append(tuple(children))
    graphs = [None]
    for _, _, parent, j in found[1:]:
        graphs.append(transforms.contract_edge(g if parent == 0 else graphs[parent], j))
    return tuple((key, graph, children) for (key, *_), graph, children in zip(found, graphs, children_of))


contraction_lattice.cache_info = _lattice.cache_info


def nested_weighted_sum(
    g: MetrizedGraph, depths: Iterable[int], leaf_value: Callable[[MetrizedGraph], float]
) -> list[float]:
    """For each requested depth k, the sum over all length-k contraction
    sequences of R/(L+R) weight products times a value of the final graph.

    Weights are taken in the graph current at each step, so this is the
    ordered-sequence sum, evaluated without enumerating orders: the future of
    a partial contraction depends only on the set of edges contracted so far.
    One walk of the lattice from its deepest nodes up serves every depth;
    ``leaf_value`` is called once per node graph whose depth is requested,
    and each depth's sum at a node is one ``math.fsum`` over that node's
    children in edge order.  Returns the sums in the order of ``depths``,
    [] without building the lattice when none is asked; a depth below 0
    raises TooSmall and one above v - 2 TooLarge.
    """
    depths = list(depths)
    if not depths:
        return []
    top = max(0, g.vertex_count - 2)
    for depth in depths:
        if depth < 0:
            raise TooSmall(f"cannot contract {depth} times")
        if depth > top:
            raise TooLarge(f"cannot contract {depth} times on {g.vertex_count} vertices")
    wanted = sorted(set(depths))
    deepest = wanted[-1]
    lattice = contraction_lattice(g)
    sums_at: list[dict[int, float] | None] = [None] * len(lattice)
    for at in reversed(range(len(lattice))):
        key, graph, children = lattice[at]
        size = len(key)
        graph = g if graph is None else graph
        sums = {}
        if size in wanted:
            sums[size] = leaf_value(graph)
        if size < deepest:
            weighted = [
                (w, sums_at[child])
                for w, child in zip(graph_profile(graph).weight_resistance, children)
                if w != 0.0
            ]
            for depth in wanted:
                if depth > size:
                    sums[depth] = math.fsum(w * child[depth] for w, child in weighted)
        sums_at[at] = sums
    return [sums_at[0][depth] for depth in depths]


def admissible_leaf_nodes(g: MetrizedGraph) -> list[tuple[frozenset[int], MetrizedGraph]]:
    """The fully contracted (2-vertex) nodes of the lattice as (key, graph), in key order."""
    depth = g.vertex_count - 2
    return [(key, g if graph is None else graph)
            for key, graph, _ in contraction_lattice(g) if len(key) == depth]


def w_of(g: MetrizedGraph) -> float:
    """The contraction weight w with (v-1) z = w + x; bridgeless graphs only."""
    if not g.is_bridgeless():
        raise BridgePresent("w is only defined on bridgeless graphs")
    prof = graph_profile(g)
    return (g.vertex_count - 1) * prof.z - prof.x


def w_nested(g: MetrizedGraph) -> float:
    """w evaluated from its defining nested sum, one walk of the contraction lattice.

    Averages, over all admissible contraction sequences, the sum of
    L^3/(L+R)^2 over the edges of the final two-vertex graph.  Raises
    TooLarge when the lattice has more than LATTICE_NODE_CAP nodes.
    """
    if not g.is_bridgeless():
        raise BridgePresent("w is only defined on bridgeless graphs")
    if g.vertex_count < 2:
        raise TooSmall("nested form of w needs at least 2 vertices")

    def leaf(graph: MetrizedGraph) -> float:
        return math.fsum(
            L if a == b else L ** 3 / ((L + R) * (L + R))
            for (a, b, L), R in zip(graph.edges, graph_profile(graph).columns.resistance)
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
    segments_per_edge = _index(segments_per_edge, TooSmall, "segments per edge")
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
    K = _grounded_inverse(_laplacian(fine))
    r_to_origin = K.diagonal()
    total = math.fsum(
        (r_to_origin[b] - r_to_origin[a]) ** 2 / h
        for a, b, h in fine.edges
    )
    return total / 4.0


def tau_oracle_contraction(g: MetrizedGraph) -> float:
    """tau by recursion on contractions, with a two-vertex closed form.

    For three or more vertices, tau is the weighted average of the tau values
    of all single-edge contractions (weight R/(L+R)) minus z/12, scaled by
    1/(v-2).  The x/y formulas are never consulted.  One walk of the
    contraction lattice: raises TooLarge when it has more than
    LATTICE_NODE_CAP nodes.
    """
    lattice = contraction_lattice(g)
    values = [0.0] * len(lattice)
    for at in reversed(range(len(lattice))):
        _, graph, children = lattice[at]
        graph = g if graph is None else graph
        v = graph.vertex_count
        if v <= 2:
            values[at] = _banana_tau(graph)
            continue
        prof = graph_profile(graph)
        acc = math.fsum(
            w * values[child]
            for w, child in zip(prof.weight_resistance, children)
            if w != 0.0
        )
        values[at] = acc / (v - 2) - prof.z / (12.0 * (v - 2))
    return values[0]


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
    K = _grounded_inverse(_laplacian(fine))
    diag = K.diagonal()
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
