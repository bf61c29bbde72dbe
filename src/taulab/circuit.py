"""The resistive-circuit layer: effective resistance data.

The circuit has conductance 1/length per edge (parallel edges added,
self-loops skipped).  Two routes compute its resistances.

GTH elimination (Grassmann, Taksar and Heyman 1985) removes vertices from
per-vertex conductance maps by star-mesh steps whose pivot is the sum of
the removed vertex's conductances, so no step subtracts and each result
keeps a small relative error whatever the spread of lengths (O'Cinneide
1993).  effective_resistance reduces the network onto its two terminals;
an edge's data at a base reduces G - e, built by skipping e, onto
{a, b, base}.  GTH serves every non-bridge edge of a graph under
RANK_ONE_MIN_VERTICES and each edge that the closed-form route rejects.

The closed-form route inverts the grounded Laplacian (vertex 0 removed)
once per graph.  An edge e = (a, b, L) is in parallel with G - e, so G - e
needs nothing beyond G's own resistances: R = L r / s and the arm gap
L Delta_p / s, with r = r(a, b), s = L - r and Delta_p = r(p, a) - r(p, b)
at base p.  This is what the rank-one (Sherman-Morrison) update of the
inverse reduces to: O(1) per edge and one gather of row K[p] per base.
The inverse is checked by the normwise relative residual
||A X - I|| / (||A|| ||X||) (infinity norms), which does not change when
all lengths are scaled; a suspicious grounded inverse raises
SingularSystem.

Resistance across a cut where no current can flow is represented by the
INFINITE marker object, never by a float sentinel, so that the limit
conventions of the invariant layer are explicit branches instead of
accidents of IEEE arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import SingularSystem
from .graphs import MetrizedGraph, component_labels

# Largest normwise relative residual ||A X - I|| / (||A|| ||X||) accepted
# from any inverse.
RESIDUAL_BOUND = 1e-8
# An edge takes the closed form only while the rounding error it predicts
# for s = L - r, eps (K[a,a] + K[b,b] + 2|K[a,b]|) / s, stays at or below
# this; above it the edge is left to GTH elimination.  The rounding error
# of r = K[a,a] + K[b,b] - 2 K[a,b] is about eps times the sum of the
# magnitudes, and R and the arm gap divide by s.  Measured against exact
# rationals on planted near-bridges (a short edge of 1e-8 to 1e-1 in
# parallel with a path of 1e2 to 1e8), the error of R and both arms,
# relative to the edge's largest resistance, stayed below this prediction
# wherever s > 0, for predictions from 3.4e-12 to 25.  On the random
# 6-regular graphs of the benchmark ladders (lengths in [0.1, 10], n 40 to
# 280, 75k edges) the largest prediction was 9.5e-14: no edge fell back.
# On 300 random graphs of 10 to 12 vertices with length spreads up to 1e8
# (a random tree plus v/2 to 2v edges), verify_all failed a 1e-9 identity
# on 63 graphs at this bound, at 1e-12 and at 1e-14, and on 44 with GTH for
# every edge; K_CONTRACT missed on 59 and 44 of them.
RANK_ONE_ERROR_BOUND = 1e-13
# Graphs with fewer vertices take GTH for every edge, at each base asked
# for.  GTH is slower than the closed form at every size, so this is not
# a crossover: it keeps GTH to sizes where it costs a few ms.  Per graph
# on 6-regular multigraphs, one BLAS thread, 2-core x86-64, GTH against
# the closed form at one base: 0.68 against 0.22 ms at n = 6, 2.7 against
# 0.30 at n = 10 and 6.6 against 0.39 at n = 14; at every base: 4.0
# against 0.61 ms at n = 6, 25 against 1.4 at n = 10 and 83 against 2.0 at
# n = 14.
RANK_ONE_MIN_VERTICES = 10
_EPS = np.finfo(float).eps


class Infinite:
    """Marker for an unbounded resistance (probe points in separate components)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = Infinite()

ResistanceValue = Union[float, Infinite]


def is_infinite(value: ResistanceValue) -> bool:
    return value is INFINITE


@dataclass(frozen=True)
class EdgeCircuitData:
    """Resistance data of one edge, measured in the graph with that edge removed.

    ``resistance`` is the effective resistance between the edge's endpoints
    after the edge itself is deleted (INFINITE exactly when the edge is a
    bridge).  Seen from the two endpoints and the base vertex, the
    deleted-edge network reduces to a star with three arms; ``arm_first``
    and ``arm_second`` are the arms at the first and second endpoint, the
    two that the invariants read (through R = arm_first + arm_second and the
    arm gap).  The arm at the base is not kept.  For a bridge the arm on the
    far side of the cut from the base is INFINITE and the near one is 0.
    For a self-loop everything collapses: resistance and both arms are 0.
    """

    edge: int
    base: int
    length: float
    resistance: ResistanceValue
    arm_first: ResistanceValue
    arm_second: ResistanceValue

    # Set at construction time; a self-loop is a structural fact, not
    # something to be inferred from a zero resistance.
    _loop_flag: bool = False

    @property
    def is_bridge(self) -> bool:
        return is_infinite(self.resistance)

    @property
    def is_loop(self) -> bool:
        return self._loop_flag


def _laplacian(vertex_count: int, edges) -> np.ndarray:
    lap = np.zeros((vertex_count, vertex_count))
    for a, b, length in edges:
        if a == b:
            continue
        c = 1.0 / length
        lap[a, a] += c
        lap[b, b] += c
        lap[a, b] -= c
        lap[b, a] -= c
    return lap


def _grounded_inverse(lap: np.ndarray) -> np.ndarray:
    """Invert the Laplacian with vertex 0's row/column removed, padded back with zeros.

    The returned matrix K satisfies r(x, y) = K[x,x] + K[y,y] - 2 K[x,y]
    whenever the graph is connected, and r(x, 0) = K[x,x].  The inverse X
    of the reduced matrix A must pass the normwise relative residual check
    ||A X - I|| / (||A|| ||X||) <= RESIDUAL_BOUND (infinity norms), which
    bounds its backward error and, unlike max|A X - I|, is unchanged when
    all lengths are scaled.
    """
    n = lap.shape[0]
    full = np.zeros((n, n))
    if n == 1:
        return full
    reduced = lap[1:, 1:]
    try:
        inv = np.linalg.inv(reduced)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"grounded Laplacian is singular: {exc}") from exc

    def norm(m):
        return np.abs(m).sum(axis=1).max()

    residual = norm(reduced @ inv - np.eye(n - 1)) / (norm(reduced) * norm(inv))
    if not residual <= RESIDUAL_BOUND:
        raise SingularSystem(f"grounded Laplacian solve residual {residual:.3e} exceeds {RESIDUAL_BOUND:.0e}")
    full[1:, 1:] = inv
    return full


def _conductances(vertex_count: int, edges, skip: int = -1) -> list[dict[int, float]]:
    """Per-vertex maps neighbour -> conductance, parallel edges added, loops and edge skip left out."""
    cond: list[dict[int, float]] = [{} for _ in range(vertex_count)]
    for i, (a, b, length) in enumerate(edges):
        if a != b and i != skip:
            c = 1.0 / length
            cond[a][b] = cond[a].get(b, 0.0) + c
            cond[b][a] = cond[b].get(a, 0.0) + c
    return cond


def _eliminate(cond: list[dict[int, float]], keep) -> list[dict[int, float]]:
    """Star-mesh eliminate, in place, every vertex outside keep (GTH).

    Removing v joins each pair u, w of its neighbours by c_vu c_vw / P,
    where the pivot P is the sum of v's conductances: the Schur complement
    step with its diagonal taken as a sum, never as a difference.  The
    fewest-neighbours vertex goes first, lowest index on ties, to limit
    fill-in.
    """
    pending = [v for v in range(len(cond)) if v not in keep]
    while pending:
        v = min(pending, key=lambda u: len(cond[u]))
        pending.remove(v)
        arms = list(cond[v].items())
        pivot = sum(c for _, c in arms)
        for u, _ in arms:
            del cond[u][v]
        for j, (u, cu) in enumerate(arms):
            for w, cw in arms[j + 1:]:
                c = cu * cw / pivot
                cond[u][w] = cond[u].get(w, 0.0) + c
                cond[w][u] = cond[w].get(u, 0.0) + c
    return cond


def _gth_star(g: MetrizedGraph, edge: int, base: int) -> tuple[float, float]:
    """Star arms at the endpoints a, b of a non-bridge edge, in G minus that edge, toward base.

    G - e is reduced onto {a, b, base}, leaving a triangle with conductances
    g_ab (possibly 0), g_ap and g_bp; its star has arm_a = g_bp / D and
    arm_b = g_ap / D with D = g_ab g_ap + g_ab g_bp + g_ap g_bp.  A base at
    an endpoint leaves the two-terminal case: arm 0 there, 1/g_ab at the other.
    """
    a, b, _ = g.edges[edge]
    cond = _eliminate(_conductances(g.vertex_count, g.edges, skip=edge), {a, b, base})
    if base in (a, b):
        r = 1.0 / cond[a][b]
        return (0.0, r) if base == a else (r, 0.0)
    g_ab = cond[a].get(b, 0.0)
    g_ap = cond[a].get(base, 0.0)
    g_bp = cond[b].get(base, 0.0)
    d = g_ab * g_ap + g_ab * g_bp + g_ap * g_bp
    return g_bp / d, g_ap / d


def effective_resistance(g: MetrizedGraph, x: int, y: int) -> ResistanceValue:
    """Effective resistance between two vertices of the (connected) graph.

    The network is reduced onto {x, y} by GTH elimination; what is left is
    one conductance between them.
    """
    x = g.check_vertex(x)
    y = g.check_vertex(y)
    if x == y:
        return 0.0
    return 1.0 / _eliminate(_conductances(g.vertex_count, g.edges), {x, y})[x][y]


@lru_cache(maxsize=16384)
def _deleted_edge_inverses(g: MetrizedGraph):
    """Closed-form deleted-edge data of every edge, from one grounded inverse K.

    An edge e = (a, b, L) is in parallel with G - e, so G - e is read off
    G's own resistances: with r = r(a, b), s = L - r and
    Delta_p = r(p, a) - r(p, b) = (K[a,a] - K[b,b]) - 2 (K[p,a] - K[p,b]),
    G - e has R = L r / s between a and b and the arm gap L Delta_p / s
    toward base p.  An edge takes this route only when s > 0 and the
    rounding error predicted for s, eps (K[a,a] + K[b,b] + 2|K[a,b]|) / s,
    is at most RANK_ONE_ERROR_BOUND.

    Returns (resistance, closed).  resistance[i] is R for edge i, or None
    for bridges, self-loops, edges the guard rejects and every edge of a
    graph under RANK_ONE_MIN_VERTICES; the non-bridge ones among them are
    left to GTH elimination per base (_gth_star).  closed is None when no
    edge takes the route, else (K, a, b, scale, spread) with the per-edge
    arrays of endpoints, L / s and K[a,a] - K[b,b]: K plus O(m) scalars,
    O(n^3 + m) for the graph and shared across bases.
    """
    n = g.vertex_count
    edges = g.edges
    resistance = (None,) * len(edges)
    if n < RANK_ONE_MIN_VERTICES:
        return resistance, None
    a, b, length = map(np.array, zip(*edges))
    routed = a != b
    routed[list(g.bridges())] = False
    if not routed.any():
        return resistance, None
    K = _grounded_inverse(_laplacian(n, edges))
    d = np.diag(K)
    k_ab = K[a, b]
    r = d[a] + d[b] - 2.0 * k_ab
    s = length - r
    ok = routed & (s > 0) & (_EPS * (d[a] + d[b] + 2.0 * np.abs(k_ab)) <= RANK_ONE_ERROR_BOUND * s)
    scale = length / np.where(ok, s, 1.0)
    resistance = tuple(R if take else None for R, take in zip((scale * r).tolist(), ok.tolist()))
    return resistance, (K, a, b, scale, d[a] - d[b])


def all_edge_circuit_data(g: MetrizedGraph, base: int) -> tuple[EdgeCircuitData, ...]:
    """Per-edge resistance and star-arm data with respect to one base vertex.

    For each edge e = (a, b) the edge is removed and the rest of the network
    is reduced, as seen from a, b and the base, to a star with three arms.
    Edges with closed-form data (_deleted_edge_inverses, cached per graph
    and shared across bases) take R from it and their arm gap from one
    gather of row K[base]: arm_first = (R + gap) / 2.  Every other non-bridge
    edge is reduced onto {a, b, base} by GTH elimination at each base asked
    for (_gth_star), and R is the sum of its two arms.
    """
    base = g.check_vertex(base)
    n = g.vertex_count
    edges = g.edges
    bridge_set = g.bridges()
    resistance, closed = _deleted_edge_inverses(g)
    if closed is not None:
        K, a_of, b_of, scale, spread = closed
        row = K[base]
        gaps = (scale * (spread - 2.0 * (row[a_of] - row[b_of]))).tolist()

    out: list[EdgeCircuitData] = []
    for i, (a, b, length) in enumerate(edges):
        if a == b:
            out.append(EdgeCircuitData(
                edge=i, base=base, length=length,
                resistance=0.0, arm_first=0.0, arm_second=0.0, _loop_flag=True,
            ))
            continue
        r_ab = resistance[i]
        if i in bridge_set:
            labels = component_labels(n, edges, skip_edge=i)
            if labels[base] == labels[a]:
                arm_first, arm_second = 0.0, INFINITE
            else:
                arm_first, arm_second = INFINITE, 0.0
            r_ab = INFINITE
        elif r_ab is None:
            arm_first, arm_second = _gth_star(g, i, base)
            r_ab = arm_first + arm_second
        else:
            arm_first = 0.5 * (r_ab + gaps[i])
            arm_second = r_ab - arm_first
        out.append(EdgeCircuitData(
            edge=i, base=base, length=length,
            resistance=r_ab, arm_first=arm_first, arm_second=arm_second,
        ))
    return tuple(out)
