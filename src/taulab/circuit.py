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
RANK_ONE_MIN_VERTICES and each edge that the rank-one route rejects.

The rank-one route inverts the grounded Laplacian (vertex 0 removed) once
per graph and updates the inverse per deleted edge by Sherman-Morrison:
two gathered columns and O(n) arithmetic per edge.  Inverses are checked by
the normwise relative residual ||A X - I|| / (||A|| ||X||) (infinity
norms), which does not change when all lengths are scaled; a suspicious
grounded inverse raises SingularSystem.

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
# An edge takes the rank-one update only while the rounding error it
# predicts for s = L - r, eps (K[a,a] + K[b,b] + 2|K[a,b]|) / s, stays at
# or below this; above it the edge is left to GTH elimination.  The
# rounding error of r = K[a,a] + K[b,b] - 2 K[a,b] is about eps times the
# sum of the magnitudes, and the update divides by s.  Measured against
# exact rationals on planted near-bridges (a short edge in parallel with a
# long path), the error of the update stayed below this prediction from
# 1e-12 to 1e-1.  On random 6-regular graphs with lengths in [0.1, 10]
# (n 40 to 280, 30k edges) the largest prediction was 9.5e-14: no edge
# fell back.  On 300 random graphs of 10 to 12 vertices with length spreads
# up to 1e8, verify_all failed a 1e-9 identity on 10 graphs at this bound,
# 10 at 1e-12 and 9 at 1e-14, and on 8 with GTH for every edge.
RANK_ONE_ERROR_BOUND = 1e-13
# Graphs with fewer vertices take GTH for every edge, at each base asked
# for.  GTH is slower than the rank-one route at every size, so this is not
# a crossover: it keeps GTH to sizes where it costs a few ms.  Per graph
# on 6-regular multigraphs, one BLAS thread, 2-core x86-64, GTH against
# rank-one at one base: 0.69 against 0.46 ms at n = 6, 2.2 against 0.61 at
# n = 10 and 5.6 against 0.80 at n = 14; at every base: 4.0 against 0.88 ms
# at n = 6, 20 against 1.9 at n = 10 and 77 against 3.2 at n = 14.
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


def _inf_norm(m: np.ndarray):
    """Largest absolute row sum of a matrix, or of each matrix in a stack."""
    return np.abs(m).sum(axis=-1).max(axis=-1)


def _relative_residual(residual: np.ndarray, a_norm, x: np.ndarray):
    """Normwise relative residual ||A X - I|| / (||A|| ||X||) of a system or a stack.

    ``residual`` is A X - I (or the columns of it that X holds) and
    ``a_norm`` is ||A||, both in the infinity norm.  It bounds the backward
    error of X and is unchanged when A is scaled, unlike max|A X - I|.
    """
    return _inf_norm(residual) / (a_norm * _inf_norm(x))


def _grounded_inverse(lap: np.ndarray) -> np.ndarray:
    """Invert the Laplacian with vertex 0's row/column removed, padded back with zeros.

    The returned matrix K satisfies r(x, y) = K[x,x] + K[y,y] - 2 K[x,y]
    whenever the graph is connected, and r(x, 0) = K[x,x].
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
    residual = _relative_residual(reduced @ inv - np.eye(n - 1), _inf_norm(reduced), inv)
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


def _rank_one_deleted(lap: np.ndarray, edges, ids, to_first, to_second) -> None:
    """Fill to_first/to_second for the edges in ids from one grounded inverse.

    For edge (a, b, L) with v = K(e_a - e_b), r = v_a - v_b and s = L - r,
    Sherman-Morrison gives the deleted-edge inverse K + v v^T / s, hence
    r'(x, y) = r(x, y) + (v_x - v_y)^2 / s.  An edge is left out (its
    entries stay None, for GTH elimination) when s <= 0, when its predicted
    relative error eps (K[a,a] + K[b,b] + 2|K[a,b]|) / s exceeds
    RANK_ONE_ERROR_BOUND, or when the two updated columns it reads fail the
    residual check against the deleted-edge matrix.
    """
    K = _grounded_inverse(lap)
    d = np.diag(K)
    n, cols = len(d), np.arange(len(ids))
    a = np.array([edges[i][0] for i in ids])
    b = np.array([edges[i][1] for i in ids])
    length = np.array([edges[i][2] for i in ids])
    c = 1.0 / length
    Ka, Kb = K[:, a], K[:, b]
    v = Ka - Kb
    va, vb = v[a, cols], v[b, cols]
    s = length - (va - vb)
    ok = (s > 0) & (_EPS * (d[a] + d[b] + 2.0 * np.abs(K[a, b])) <= RANK_ONE_ERROR_BOUND * s)
    s = np.where(ok, s, 1.0)

    # The updated columns K'[:, a] and K'[:, b] against the deleted-edge
    # matrix A' = A - c u u^T (u = e_a - e_b), without forming A'.  Row 0,
    # the ground, is not part of the system and is dropped.
    X = np.stack([Ka + v * (va / s), Kb + v * (vb / s)], axis=-1)
    AX = (lap @ X.reshape(n, -1)).reshape(X.shape)
    ux = c[:, None] * (X[a, cols] - X[b, cols])
    AX[a, cols] -= ux
    AX[b, cols] += ux
    AX[a, cols, 0] -= 1.0
    AX[b, cols, 1] -= 1.0
    # ||A'|| differs from ||A|| only in rows a and b, each losing c from the
    # diagonal and c from the (a, b) entry unless the other end is the ground.
    row = np.abs(lap).sum(axis=1)
    row[0] = 0.0
    top = np.argsort(row)[::-1][:3]
    others = np.where((top == a[:, None]) | (top == b[:, None]), 0.0, row[top]).max(axis=1)
    a_norm = np.maximum(others, np.maximum(row[a] - c * (1 + (b != 0)), row[b] - c * (1 + (a != 0))))
    residual = _relative_residual(AX[1:].transpose(1, 0, 2), a_norm, X[1:].transpose(1, 0, 2))
    ok &= residual <= RESIDUAL_BOUND

    first = np.ascontiguousarray((d[:, None] + d[a] - 2.0 * Ka + (v - va) ** 2 / s).T)
    second = np.ascontiguousarray((d[:, None] + d[b] - 2.0 * Kb + (v - vb) ** 2 / s).T)
    for k, i in enumerate(ids):
        if ok[k]:
            to_first[i] = first[k]
            to_second[i] = second[k]


@lru_cache(maxsize=16384)
def _deleted_edge_inverses(g: MetrizedGraph):
    """Rank-one deleted-edge resistances from both endpoints of every edge.

    Returns (to_first, to_second): for edge i = (a, b), to_first[i][x] is
    r(x, a) and to_second[i][x] is r(x, b) in the graph minus edge i, for
    every vertex x.  These 2n floats per edge are all the invariants read
    of a deleted-edge network, independent of the base and cached per graph.
    They come from one grounded inverse by Sherman-Morrison
    (_rank_one_deleted), O(n^3 + n m) for the graph.  The entries are None
    for bridges, self-loops, edges that fail the rank-one guard and every
    edge of a graph under RANK_ONE_MIN_VERTICES; the non-bridge ones among
    them are left to GTH elimination per base (_gth_star).
    """
    n = g.vertex_count
    edges = g.edges
    to_first: list[np.ndarray | None] = [None] * len(edges)
    to_second: list[np.ndarray | None] = [None] * len(edges)
    if n >= RANK_ONE_MIN_VERTICES:
        bridge_set = g.bridges()
        ids = [i for i, (a, b, _) in enumerate(edges) if a != b and i not in bridge_set]
        if ids:
            _rank_one_deleted(_laplacian(n, edges), edges, ids, to_first, to_second)
    return tuple(to_first), tuple(to_second)


def all_edge_circuit_data(g: MetrizedGraph, base: int) -> tuple[EdgeCircuitData, ...]:
    """Per-edge resistance and star-arm data with respect to one base vertex.

    For each edge e = (a, b) the edge is removed and the rest of the network
    is reduced, as seen from a, b and the base, to a star with three arms.
    Edges with rank-one data (_deleted_edge_inverses, cached per graph and
    shared across bases) read the arms off it as
    arm_first = (r(base, a) + R - r(base, b)) / 2.  Every other non-bridge
    edge is reduced onto {a, b, base} by GTH elimination at each base asked
    for (_gth_star), and R is the sum of its two arms.
    """
    base = g.check_vertex(base)
    n = g.vertex_count
    edges = g.edges
    bridge_set = g.bridges()
    to_first, to_second = _deleted_edge_inverses(g)

    out: list[EdgeCircuitData] = []
    for i, (a, b, length) in enumerate(edges):
        if a == b:
            out.append(EdgeCircuitData(
                edge=i, base=base, length=length,
                resistance=0.0, arm_first=0.0, arm_second=0.0, _loop_flag=True,
            ))
            continue
        if i in bridge_set:
            labels = component_labels(n, edges, skip_edge=i)
            if labels[base] == labels[a]:
                arm_first, arm_second = 0.0, INFINITE
            else:
                arm_first, arm_second = INFINITE, 0.0
            r_ab = INFINITE
        elif to_first[i] is None:
            arm_first, arm_second = _gth_star(g, i, base)
            r_ab = arm_first + arm_second
        else:
            r_ab = to_second[i][a]
            arm_first = 0.5 * (to_first[i][base] + r_ab - to_second[i][base])
            arm_second = r_ab - arm_first
        out.append(EdgeCircuitData(
            edge=i, base=base, length=length,
            resistance=r_ab, arm_first=arm_first, arm_second=arm_second,
        ))
    return tuple(out)
