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

The crossing A(h; p, q) is a sum of non-negative per-edge terms too, on
both circuit routes: with V, W and J the arms at q, at p and at x of the
star that h reduces to on {p, q, x}, each edge f = (u, w, L) adds

    dV^2 / L ((J_u + J_w) / 2 + L^2 / (6 (L + R_f)))

(_star_crossing; 0.0 at a loop, no L^2 term at a bridge).  The stars of
G - e onto {a, b, x} are the stars of e in G's profile at base x (_stars),
so the catalog's crossings read G at every base and build no surgery for
them; A_pq reads the stars of one p-q edge added to h.  No tau is
differenced.

Two independent oracles recompute tau without these formulas: a quadrature
of the squared slope of the resistance function, and a recursion that
contracts edges down to two-vertex graphs with a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

from . import transforms
from .circuit import EdgeColumns, _grounded_inverse, _laplacian, all_edge_circuit_data, closed_form
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
# read; the memos still count each real build.  _loopify builds nothing
# now (TAU_CONTRACT reads the looped tau off the contraction's record) and
# stays bound for perfbench/tracing.py, which reads its cache_info().  The
# public transforms stay unmemoized.
_contract = graph_memo(transforms.contract_edge)
_delete = graph_memo(transforms.delete_edge)
_loopify = graph_memo(transforms.identify_endpoints)
_da = graph_memo(transforms.double_adjusted)


@dataclass(frozen=True)
class GraphProfile:
    """Everything the invariant formulas need about one graph at one base.

    The scalars, the z-term column and both weight columns come from the
    base's EdgeColumns (circuit.all_edge_circuit_data), kept as
    ``columns``: the layout the identity catalog and the per-edge
    invariants read.  The four per-edge fields, tuples of Python floats on
    the all-GTH route and read-only float64 arrays on the closed-form
    route, stay out of eq, hash and repr.
    """

    ell: float
    z: float
    r: float
    x: float
    y: float
    tau: float
    # Each edge's z-term, whose fsum is z: _edge_terms' at a plain edge,
    # exactly L at a self-loop and 0.0 at a bridge.
    z_terms: Sequence[float] = field(repr=False, compare=False)
    # R/(L+R) and L/(L+R) per edge, with the limits baked in:
    # a self-loop weighs (0, 1), a bridge weighs (1, 0).
    weight_resistance: Sequence[float] = field(repr=False, compare=False)
    weight_length: Sequence[float] = field(repr=False, compare=False)
    columns: EdgeColumns = field(repr=False, compare=False)


def graph_profile(g: MetrizedGraph, base: int = 0) -> GraphProfile:
    """The profile at one base: each sum is one math.fsum over its per-edge terms.

    The terms take one of two paths, picked by the circuit route
    (circuit.closed_form), and both evaluate one expression, _edge_terms.
    On the all-GTH route a scalar loop calls it per edge on Python floats;
    on the closed-form route it runs once on float64 arrays of every edge,
    with the lengths and the plain-edge mask read from the graph's
    closed-form record, and numpy's elementwise arithmetic rounds each
    operation exactly as Python floats do.  So both paths give the same
    bits, and fsum is correctly rounded and so independent of term order;
    each is the faster one on its route.  The closed-form route's weights
    and columns stay float64 arrays, read-only.
    Self-loops add their length to z, bridges theirs to r and y; z is the
    fsum of the profile's z_terms column, whose bridge zeros add nothing.
    The base is checked before the memo is read, so graph_profile(g) and
    graph_profile(g, 0) are one entry.
    """
    return _profile_at(g, g.check_vertex(base))


@graph_memo
def _profile_at(g: MetrizedGraph, base: int) -> GraphProfile:
    terms = _scalar_terms if closed_form(g) is None else _column_terms
    columns = all_edge_circuit_data(g, base)
    z, r, x, y, z_terms, w_res, w_len = terms(g, columns)
    ell = g.total_length
    tau = ell / 12.0 - x / 6.0 + y / 6.0
    return GraphProfile(
        ell=ell, z=z, r=r, x=x, y=y, tau=tau,
        z_terms=z_terms, weight_resistance=w_res, weight_length=w_len, columns=columns,
    )


graph_profile.cache_info = _profile_at.cache_info


def _edge_terms(L, R, gap):
    """A plain edge's z, r, x and y terms and its two weights, from its length, R and arm gap.

    The one copy of the per-edge formulas: _scalar_terms calls it on
    Python floats, one plain edge at a time, and _column_terms once on
    float64 arrays of every edge, whose elementwise operations round as
    Python floats do, in this same order.
    """
    denom = L + R
    sq = denom * denom
    LL = L * L
    L75 = 0.75 * L
    gap_term = L75 * gap * gap
    return (LL / denom, L * R / denom, (LL * R + L75 * R * R - gap_term) / sq,
            (0.25 * L * R * R + gap_term) / sq, R / denom, L / denom)


def _scalar_terms(g: MetrizedGraph, columns: EdgeColumns):
    """z, r, x, y and the z-term and weight tuples, one edge at a time."""
    bridges = g.bridges()
    terms = z_terms, r_terms, x_terms, y_terms, w_res, w_len = [], [], [], [], [], []
    for i, ((a, b, L), R, arm_first, arm_second) in enumerate(zip(g.edges, *columns[:3])):
        if a == b:
            z_terms.append(L)
            w_res.append(0.0)
            w_len.append(1.0)
        elif i in bridges:
            z_terms.append(0.0)
            r_terms.append(L)
            y_terms.append(L)
            w_res.append(1.0)
            w_len.append(0.0)
        else:
            for column, term in zip(terms, _edge_terms(L, R, arm_first - arm_second)):
                column.append(term)
    return (math.fsum(z_terms), math.fsum(r_terms), math.fsum(x_terms), math.fsum(y_terms),
            tuple(z_terms), tuple(w_res), tuple(w_len))


def _column_terms(g: MetrizedGraph, columns: EdgeColumns):
    """z, r, x, y and the z-term and weight columns, each term for every edge at once; every array left read-only.

    r, x and y sum the plain edges' terms, z the z-term column.  At a loop
    R and the arm gap are 0, so its weights come out (0, 1) exactly, and
    its z-term, L * L / L, is set to L; a bridge's NaN z-term and weights
    are set to their limits 0 and (1, 0).
    """
    data = closed_form(g)
    plain, length = data.plain, data.length
    z, r, x, y, w_res, w_len = _edge_terms(length, columns.resistance, columns.arm_first - columns.arm_second)
    loops = data.a == data.b
    z[loops] = length[loops]
    bridges = list(g.bridges())
    z[bridges] = 0.0
    w_res[bridges] = 1.0
    w_len[bridges] = 0.0
    for column in (*columns, z, w_res, w_len):
        column.flags.writeable = False
    bridge_lengths = length[bridges].tolist()
    return (math.fsum(z.tolist()), math.fsum(r[plain].tolist() + bridge_lengths),
            math.fsum(x[plain].tolist()), math.fsum(y[plain].tolist() + bridge_lengths), z, w_res, w_len)


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
        _check_base(value, graph_profile(g, other_base).tau, other_base)
    return value


def _check_base(value: float, check: float, base: int) -> None:
    """SingularSystem unless tau at base 0 and at base agree to BASE_AGREEMENT_TOL, relative, with no floor."""
    if not abs(value - check) <= BASE_AGREEMENT_TOL * max(abs(value), abs(check)):
        raise SingularSystem(f"tau disagrees across base vertices: {value!r} at 0 vs {check!r} at {base}")


def _every_base(g: MetrizedGraph) -> list[EdgeColumns]:
    """g's circuit columns at every base, once every base's tau agrees with base 0's."""
    profiles = [graph_profile(g, base) for base in range(g.vertex_count)]
    for base, prof in enumerate(profiles):
        _check_base(profiles[0].tau, prof.tau, base)
    return [prof.columns for prof in profiles]


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


def invariant_set(g: MetrizedGraph) -> InvariantSet:
    prof = graph_profile(g)
    w = w_of(g) if g.is_bridgeless() else None
    return InvariantSet(
        ell=prof.ell, genus=g.genus, tau=tau(g), x=prof.x, y=prof.y,
        z=prof.z, r=prof.r, w=w,
    )


# -- deletion defect K ---------------------------------------------------------


def _deletable(g: MetrizedGraph, i: int) -> int:
    """Edge index i, checked; WouldDisconnect if deleting it disconnects g."""
    i = g.check_edge(i)
    if i in g.bridges():
        raise WouldDisconnect(f"edge {i} is a bridge; K needs a connected deletion")
    return i


def K_definition(g: MetrizedGraph, i: int) -> float:
    """z(g) minus edge i's own z-term (g's profile's z_terms) minus z(g - edge i).

    Measures how much the z-sum of the other edges grows when edge i is
    deleted.  Defined whenever the deletion leaves the graph connected
    (WouldDisconnect on a bridge); for a self-loop it is exactly 0.
    """
    i = _deletable(g, i)
    a, b, _ = g.edges[i]
    if a == b:
        return 0.0
    prof = graph_profile(g)
    return float(prof.z - prof.z_terms[i] - edge_record(g, i).deleted.z)


def K_contraction_form(g: MetrizedGraph, i: int) -> float:
    """The same defect via contraction: (R/(L+R)) (z(contracted) - z(deleted)).

    +0.0 at a self-loop with no case of its own: its weight is 0.0, and its
    contraction and deletion are one edge list, so their z agree.
    """
    i = _deletable(g, i)
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

    Equal to r(p,q) (tau(g with p,q glued) - tau(g) + r(p,q)/6); always in
    [0, r(p,q) (r_max - r(p,q)/2)] where r_max is the resistance from the
    gluing points.  It is _star_crossing's sum of non-negative terms over
    the stars of g onto {p, q, x} at every base x: the stars of one p-q
    edge added to g, of length ell(g), read from the joined graph's
    columns (_stars), so every base's tau of the joined graph must agree
    with base 0's (SingularSystem).  Since ell(g) >= r(p, q), that edge's
    s = L - r is at least L / 2 and the closed form's guard passes it.
    The direct quadrature lives in a_pq_oracle_integral.
    """
    p = g.check_vertex(p)
    q = g.check_vertex(q)
    if p == q:
        raise SameVertex("A needs two distinct points")
    joined = MetrizedGraph._unchecked(g.vertex_count, g.edges + ((p, q, g.total_length),))
    return _star_crossing(g, _stars(joined, g.edge_count))


def _stars(g: MetrizedGraph, i: int) -> list[tuple[float, float, float]]:
    """Edge i = (a, b)'s star at every base x: the arms (W, V, J) at a, at b and at x of G - e reduced onto {a, b, x}.

    Read from g's columns at every base (_every_base), on either route, as
    Python floats: _star_crossing sums them about twice as fast as numpy
    scalars.
    """
    return [(float(c.arm_first[i]), float(c.arm_second[i]), float(c.arm_base[i])) for c in _every_base(g)]


def _star_crossing(h: MetrizedGraph, stars: Sequence[tuple[float, float, float]]) -> float:
    """A(h; p, q) as one fsum of non-negative terms, one per edge f = (u, w, L) of h.

    stars[x] is (W, V, J): the arms at p, at q and at x of the star that h
    reduces to on {p, q, x}.  On f, J is quadratic and V linear, so f adds
    dV^2 / L ((J_u + J_w) / 2 + L^2 / (6 (L + R_f))), with R_f f's
    deleted-edge resistance in h (graph_profile(h) at base 0, as a Python
    float) and the L^2 term dropped at a bridge of h.  V + W = r(p, q) at
    every vertex, so dV is taken from whichever arm is the smaller at f's
    ends: the one whose difference cancels least.  Both ends of a loop read
    one star, so its dV and its term are 0.0, which leaves the fsum as it is.
    """
    resistance = [*map(float, graph_profile(h).columns.resistance)]
    bridges = h.bridges()
    terms = []
    for f, (u, w, L) in enumerate(h.edges):
        (W_u, V_u, J_u), (W_w, V_w, J_w) = stars[u], stars[w]
        gap = W_u - W_w if W_u + W_w < V_u + V_w else V_w - V_u
        bump = 0.0 if f in bridges else L * L / (6.0 * (L + resistance[f]))
        terms.append(gap * gap / L * (0.5 * (J_u + J_w) + bump))
    return math.fsum(terms)


# -- one record of floats per edge ----------------------------------------------


class Scalars(NamedTuple):
    """The profile scalars at base 0 of one surgery graph."""

    x: float
    y: float
    z: float
    r: float
    tau: float


class EdgeRecord(NamedTuple):
    """Everything the identity catalog reads of one edge e = (a, b)'s surgeries.

    The looped graph (G with a and b glued, e kept as a loop) has no field:
    its tau is G's length with the x and y of ``contracted``, and
    TAU_CONTRACT, its one reader, computes it there.
    """

    deleted: Scalars | None  # G - e; None at a bridge
    contracted: Scalars  # G/e
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
    when this returns, so g's memo keeps floats only.  On either route
    the crossings are _star_crossing's sums over G - e and DA(G - e), with
    e's stars read from G's columns at every base (_stars, every base's tau
    checked against base 0's): the stars of G - e, and a quarter of them
    for DA(G - e), whose every resistance is a quarter of G - e's.  On the
    all-GTH route the crossing equals A_pq(G - e, a, b) bit for bit; on the
    closed-form route A_pq reads another graph's inverse, so the two agree
    to rounding.  No looped graph (G with a and b glued, e kept as a loop)
    is built: TAU_CONTRACT reads its tau off G's length and G/e's x and y.
    """
    scope = _scope(g)
    a, b, _ = g.edges[i]
    contracted = _scalars(_contract(scope, i))
    if i in g.bridges():
        return EdgeRecord(None, contracted, None, None, None)
    deleted = _delete(scope, i)
    stars = None if a == b else _stars(g, i)
    crossing = 0.0 if a == b else _star_crossing(deleted, stars)
    doubled = doubled_crossing = None
    if g.is_bridgeless():
        doubled_graph = _da(deleted)
        doubled = graph_profile(doubled_graph).tau
        doubled_crossing = 0.0 if a == b else _star_crossing(doubled_graph, [(W / 4.0, V / 4.0, J / 4.0) for W, V, J in stars])
    return EdgeRecord(_scalars(deleted), contracted, crossing, doubled, doubled_crossing)


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


def _node_length(core: MetrizedGraph, loops: Sequence[float]) -> float:
    """A lattice node's total length: one fsum of its core's lengths and its loops, the node graph's own bits."""
    return math.fsum([length for _, _, length in core.edges] + list(loops)) if loops else core.total_length


def node_tau(core: MetrizedGraph, loops: Sequence[float]) -> float:
    """tau of a lattice node's graph from its core and loop lengths, bit for bit.

    Loops add nothing to x and y and change no other edge's circuit data,
    so the node graph's x and y are its core's; only its length has the
    loops.
    """
    prof = graph_profile(core)
    return _node_length(core, loops) / 12.0 - prof.x / 6.0 + prof.y / 6.0


def node_z(core: MetrizedGraph, loops: Sequence[float]) -> float:
    """z of a lattice node's graph, bit for bit: one fsum of its core profile's z_terms and its loop lengths."""
    return math.fsum([*graph_profile(core).z_terms, *loops])


def _banana_tau(core: MetrizedGraph, loops: Sequence[float]) -> float:
    """Closed-form tau of a lattice node on one or two vertices, from its core and loop lengths."""
    ell = _node_length(core, loops)
    if core.vertex_count == 1:
        return ell / 12.0
    count, harmonic = banana_stats(core)
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

    A tuple of nodes (key, core, children, loops), the root first and then
    in depth order, so a walk from the end reaches every child before its
    parents.  The key is the frozenset F of contracted original edge
    indices: the graph G/F does not depend on the contraction order, so
    sequences collapse onto their underlying sets and every nested sum over
    sequences becomes one walk.  Within a depth the keys come in
    lexicographic order of their sorted indices: a node appends its
    children in edge order, and a key is first reached from itself minus
    its largest index, the lexicographically first of its parents.
    G/F depends on F only through the vertex partition F induces and the
    edges it leaves as loops, so a node holds G/F as a view: ``core`` is
    G/F without its loops, one graph shared by every node of its
    partition, and ``loops`` the lengths of G/F's loops, in edge order.
    The core has G/F's vertices and non-loop edges, in order, so its
    profile gives G/F's circuit data, weights, x, y and r bit for bit;
    node_tau and node_z add the loops back to the two values they change.
    children[j] is the position of the node that contracting the core's
    edge j reaches; the deepest nodes have none.  No core is g itself, not
    even the root's: the lattice lives in g's memo, where a node holding g
    would keep g in a reference cycle.  Raises TooLarge when the lattice
    has more than LATTICE_NODE_CAP nodes; the refusal is memoized like the
    lattice.
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
    no graph.  An accepted one then builds one core per distinct labelling,
    never by transforms.contract_edge: the edges whose ends have different
    labels, in order, each end numbered by its block's rank in lowest
    vertex, which is where contracting F one edge at a time, each merging
    onto the lower index, leaves it.  g's bridges among those edges are
    the core's, handed down by _bridge_ids.seed as contract_edge does.
    The edges inside the blocks are the key's and the node's loops.  The
    lattice alone holds the cores.
    """
    v = g.vertex_count
    depth = max(0, v - 2)
    # Each node: its key and its vertex labels.
    found = [(frozenset(), tuple(range(v)))]
    position = {frozenset(): 0}
    children_of = []
    # found grows as the loop runs: each node's new children join its end.
    for key, labels in found:
        children = []
        if len(key) < depth:
            for orig, (a, b, _) in enumerate(g.edges):
                a, b = labels[a], labels[b]
                if a == b:  # a loop at this node, the key's own edges among them
                    continue
                child_key = key | {orig}
                if child_key not in position:
                    if len(found) == LATTICE_NODE_CAP:
                        return (f"contraction lattice has more than {LATTICE_NODE_CAP} nodes, "
                                f"capped at {LATTICE_NODE_CAP}")
                    position[child_key] = len(found)
                    low = min(a, b)
                    found.append((child_key, tuple(low if x in (a, b) else x for x in labels)))
                children.append(position[child_key])
        children_of.append(tuple(children))
    bridges = g.bridges()
    cores = {}
    nodes = []
    for (key, labels), children in zip(found, children_of):
        if labels not in cores:
            rank = {low: k for k, low in enumerate(sorted(set(labels)))}
            edges, inside, seeds = [], [], []
            for orig, (a, b, length) in enumerate(g.edges):
                if labels[a] == labels[b]:
                    inside.append((orig, length))
                    continue
                if orig in bridges:
                    seeds.append(len(edges))
                edges.append((rank[labels[a]], rank[labels[b]], length))
            core = MetrizedGraph._unchecked(len(rank), tuple(edges))
            _bridge_ids.seed(core, frozenset(seeds))
            cores[labels] = core, inside
        core, inside = cores[labels]
        nodes.append((key, core, children, tuple(length for orig, length in inside if orig not in key)))
    return tuple(nodes)


contraction_lattice.cache_info = _lattice.cache_info


def nested_weighted_sum(
    g: MetrizedGraph, depths: Iterable[int], leaf_value: Callable[[MetrizedGraph, Sequence[float]], float]
) -> list[float]:
    """For each requested depth k, the sum over all length-k contraction
    sequences of R/(L+R) weight products times a value of the final graph.

    Weights are taken in the graph current at each step, so this is the
    ordered-sequence sum, evaluated without enumerating orders: the future of
    a partial contraction depends only on the set of edges contracted so far.
    One walk of the lattice from its deepest nodes up serves every depth,
    with one list of sums per requested depth, indexed by node:
    ``leaf_value(core, loops)`` is called once per node whose depth is
    requested, with the node's core and loop lengths (contraction_lattice),
    and a depth's sum at a shallower node is one ``math.fsum`` over that
    node's children in the core's edge order, weighted by the core's
    profile, which is the node graph's at every non-loop edge.  Returns
    the sums in the order of ``depths``, repeats included, [] without
    building the lattice when none is asked; a depth below 0 raises
    TooSmall and one above v - 2 TooLarge.
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
    lattice = contraction_lattice(g)
    sums = {depth: [0.0] * len(lattice) for depth in depths}
    for at in reversed(range(len(lattice))):
        key, core, children, loops = lattice[at]
        for depth, at_depth in sums.items():
            if depth == len(key):
                at_depth[at] = leaf_value(core, loops)
            elif depth > len(key):
                weights = graph_profile(core).weight_resistance
                at_depth[at] = math.fsum(w * at_depth[child] for w, child in zip(weights, children))
    return [sums[depth][0] for depth in depths]


def admissible_leaf_nodes(g: MetrizedGraph) -> list[tuple[frozenset[int], MetrizedGraph, tuple[float, ...]]]:
    """The fully contracted (2-vertex) nodes of the lattice as (key, core, loops), in key order."""
    depth = g.vertex_count - 2
    return [(key, core, loops) for key, core, _, loops in contraction_lattice(g) if len(key) == depth]


def w_of(g: MetrizedGraph) -> float:
    """The contraction weight w with (v-1) z = w + x; bridgeless graphs only."""
    if not g.is_bridgeless():
        raise BridgePresent("w is only defined on bridgeless graphs")
    prof = graph_profile(g)
    return (g.vertex_count - 1) * prof.z - prof.x


def w_nested(g: MetrizedGraph) -> float:
    """w evaluated from its defining nested sum, one walk of the contraction lattice.

    Averages, over all admissible contraction sequences, the sum of
    L^3/(L+R)^2 over the edges of the final two-vertex graph, where a loop
    (R = 0) adds its length.  Raises TooLarge when the lattice has more
    than LATTICE_NODE_CAP nodes.
    """
    if not g.is_bridgeless():
        raise BridgePresent("w is only defined on bridgeless graphs")
    if g.vertex_count < 2:
        raise TooSmall("nested form of w needs at least 2 vertices")

    def leaf(core: MetrizedGraph, loops: Sequence[float]) -> float:
        return math.fsum([
            L ** 3 / ((L + R) * (L + R))
            for (_, _, L), R in zip(core.edges, graph_profile(core).columns.resistance)
        ] + list(loops))

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
        _, core, children, loops = lattice[at]
        v = core.vertex_count
        if v <= 2:
            values[at] = _banana_tau(core, loops)
            continue
        acc = math.fsum(w * values[child] for w, child in zip(graph_profile(core).weight_resistance, children))
        values[at] = acc / (v - 2) - node_z(core, loops) / (12.0 * (v - 2))
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
