"""The resistive-circuit layer: effective resistance data.

Every quantity here comes from one kind of computation: ground vertex 0 of
the weighted graph Laplacian (conductance 1/length per edge, parallel edges
added, self-loops skipped), invert the grounded block, and read resistances
off the inverse K as r(x, y) = K[x,x] + K[y,y] - 2 K[x,y].  Each inverse is
checked against its defining system by its normwise relative residual
||A X - I|| / (||A|| ||X||) (infinity norms), which does not change when all
lengths are scaled, and a SingularSystem is raised if it is suspicious,
rather than letting garbage propagate into the invariants.

The per-edge data behind the invariants are resistances in the graph with
one edge deleted.  They come from the one grounded inverse K of the whole
graph: deleting an edge is a rank-one change of the Laplacian, so by
Sherman-Morrison each edge costs two gathered columns of K and O(n)
arithmetic.  Edges where that update cancels badly (near-bridges), and
graphs too small for it to pay, take an explicit inverse of the
deleted-edge matrix instead.  Of each edge only the resistances from its
two endpoints to every vertex are kept (2n floats), cached per graph.

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
# or below this; above it the explicit deleted-edge inverse is used.  The
# rounding error of r = K[a,a] + K[b,b] - 2 K[a,b] is about eps times the
# sum of the magnitudes, and the update divides by s.  Measured against
# exact rationals on planted near-bridges (a short edge in parallel with a
# long path), the error of the update stayed below this prediction from
# 1e-12 to 1e-1.  On random 6-regular graphs with lengths in [0.1, 10]
# (n 40 to 280, 30k edges) the largest prediction was 9.5e-14: no edge
# fell back.  On 600 random graphs of 10 to 12 vertices with length
# spreads up to 1e8, verify_all failed a 1e-9 identity on 22 graphs with
# the explicit route alone, 23 at this bound and 24 at 1e-12.
RANK_ONE_ERROR_BOUND = 1e-13
# Graphs with fewer vertices take the explicit route for every edge: there
# the m small inverses cost less than the grounded inverse plus the column
# check.  Per graph on 6-regular multigraphs, one BLAS thread, 2-core
# x86-64: explicit 0.27 ms against rank-one 0.40 ms at n = 6, 0.44 against
# 0.48 at n = 9, 0.52 against 0.51 at n = 10, 0.62 against 0.51 at n = 11
# and 0.98 against 0.59 at n = 14.
RANK_ONE_MIN_VERTICES = 10
# Entries of one stack of deleted-edge matrices inverted in a single LAPACK
# call; bounds the transient memory of the explicit route at any size.
_BATCH_ENTRIES = 4_000_000
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


def effective_resistance(g: MetrizedGraph, x: int, y: int) -> ResistanceValue:
    """Effective resistance between two vertices of the (connected) graph."""
    x = g.check_vertex(x)
    y = g.check_vertex(y)
    if x == y:
        return 0.0
    K = _grounded_inverse(_laplacian(g.vertex_count, g.edges))
    return K[x, x] + K[y, y] - 2.0 * K[x, y]


def _explicit_deleted(reduced: np.ndarray, edges, ids, to_first, to_second) -> None:
    """Fill to_first/to_second for the edges in ids by inverting each deleted-edge matrix.

    Each matrix is the grounded Laplacian ``reduced`` minus the edge's
    conductance, inverted in stacks of at most _BATCH_ENTRIES entries.  Each
    resistance is read as K[x,x] + K[v,v] - 2 K[x,v] from the column of the
    endpoint v: the float inverse is not exactly symmetric, and rows would
    give different last bits.
    """
    n = reduced.shape[0] + 1
    batch = max(1, _BATCH_ENTRIES // (n * n))
    for start in range(0, len(ids), batch):
        chunk = ids[start:start + batch]
        stack = np.repeat(reduced[None, :, :], len(chunk), axis=0)
        for k, i in enumerate(chunk):
            a, b, length = edges[i]
            c = 1.0 / length
            if a != 0:
                stack[k, a - 1, a - 1] -= c
            if b != 0:
                stack[k, b - 1, b - 1] -= c
            if a != 0 and b != 0:
                stack[k, a - 1, b - 1] += c
                stack[k, b - 1, a - 1] += c
        try:
            inv = np.linalg.inv(stack)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"deleted-edge Laplacian is singular: {exc}") from exc
        residual = _relative_residual(
            np.matmul(stack, inv) - np.eye(n - 1)[None, :, :], _inf_norm(stack), inv,
        ).max()
        if not residual <= RESIDUAL_BOUND:
            raise SingularSystem(f"deleted-edge solve residual {residual:.3e} exceeds {RESIDUAL_BOUND:.0e}")
        K = np.zeros((len(chunk), n, n))
        K[:, 1:, 1:] = inv  # zero row and column at the ground
        d = np.diagonal(K, axis1=1, axis2=2)
        rows = np.arange(len(chunk))
        first = np.array([edges[i][0] for i in chunk])
        second = np.array([edges[i][1] for i in chunk])
        r_first = d + d[rows, first][:, None] - 2.0 * K[rows, :, first]
        r_second = d + d[rows, second][:, None] - 2.0 * K[rows, :, second]
        for k, i in enumerate(chunk):
            to_first[i] = r_first[k]
            to_second[i] = r_second[k]


def _rank_one_deleted(lap: np.ndarray, edges, ids, to_first, to_second) -> list[int]:
    """Fill to_first/to_second for the edges in ids from one grounded inverse.

    For edge (a, b, L) with v = K(e_a - e_b), r = v_a - v_b and s = L - r,
    Sherman-Morrison gives the deleted-edge inverse K + v v^T / s, hence
    r'(x, y) = r(x, y) + (v_x - v_y)^2 / s.  An edge is left out, and
    returned for the explicit route, when s <= 0, when its predicted
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
    fallback = []
    for k, i in enumerate(ids):
        if ok[k]:
            to_first[i] = first[k]
            to_second[i] = second[k]
        else:
            fallback.append(i)
    return fallback


@lru_cache(maxsize=16384)
def _deleted_edge_inverses(g: MetrizedGraph):
    """Deleted-edge resistances from both endpoints of every edge.

    Returns (to_first, to_second): for edge i = (a, b), to_first[i][x] is
    r(x, a) and to_second[i][x] is r(x, b) in the graph minus edge i, for
    every vertex x (None for bridges and self-loops).  That is all the
    invariants read of each deleted-edge network, so these 2n floats per
    edge are what the cache keeps; they are independent of any base vertex
    and shared across bases.

    From RANK_ONE_MIN_VERTICES vertices on, one grounded inverse K of the
    whole graph gives every edge's data by a Sherman-Morrison update
    (_rank_one_deleted): one gather of two columns of K per edge and O(n)
    arithmetic, so O(n^3 + n m) for the graph instead of m inversions.
    The update divides by s = L - r(a, b), which cancels on near-bridges;
    an edge is guarded by the sign of s, by its predicted relative error
    against RANK_ONE_ERROR_BOUND, and by the residual of the two columns it
    reads.  An edge that fails the guard, and every edge of a graph below
    the crossover RANK_ONE_MIN_VERTICES, takes the explicit inverse of its
    deleted-edge matrix (_explicit_deleted); the comments at the two
    constants give the measurements behind them.
    """
    n = g.vertex_count
    edges = g.edges
    bridge_set = g.bridges()
    lap = _laplacian(n, edges)
    ids = [i for i, (a, b, _) in enumerate(edges) if a != b and i not in bridge_set]
    to_first: list[np.ndarray | None] = [None] * len(edges)
    to_second: list[np.ndarray | None] = [None] * len(edges)
    if n >= RANK_ONE_MIN_VERTICES and ids:
        ids = _rank_one_deleted(lap, edges, ids, to_first, to_second)
    _explicit_deleted(lap[1:, 1:], edges, ids, to_first, to_second)
    return tuple(to_first), tuple(to_second)


def all_edge_circuit_data(g: MetrizedGraph, base: int) -> tuple[EdgeCircuitData, ...]:
    """Per-edge resistance and star-arm data with respect to one base vertex.

    For each edge e = (a, b) the edge is removed and the rest of the network
    is reduced, as seen from a, b and the base, to a star with three arms.
    The deleted-edge resistances are shared across bases through a cache, so
    asking for several bases costs one factorization pass plus cheap reads.
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
        elif i in bridge_set:
            labels = component_labels(n, edges, skip_edge=i)
            if labels[base] == labels[a]:
                arm_first, arm_second = 0.0, INFINITE
            else:
                arm_first, arm_second = INFINITE, 0.0
            out.append(EdgeCircuitData(
                edge=i, base=base, length=length,
                resistance=INFINITE, arm_first=arm_first, arm_second=arm_second,
            ))
        else:
            r_ab = to_second[i][a]
            arm_first = 0.5 * (to_first[i][base] + r_ab - to_second[i][base])
            out.append(EdgeCircuitData(
                edge=i, base=base, length=length,
                resistance=r_ab, arm_first=arm_first, arm_second=r_ab - arm_first,
            ))
    return tuple(out)
