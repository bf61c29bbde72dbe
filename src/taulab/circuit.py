"""The resistive-circuit layer: effective resistance and voltage data.

Every quantity here comes from one kind of computation: ground a vertex of
the weighted graph Laplacian (conductance 1/length per edge, parallel edges
added, self-loops skipped), invert the grounded block, and read resistances
off the inverse.  The inverse is checked against its defining system and a
SingularSystem is raised if the residual is suspicious, rather than letting
garbage propagate into the invariants.

The per-edge data behind the invariants comes from one such inverse per
edge, of the graph with that edge deleted.  Of each one only the
resistances from the edge's two endpoints to every vertex are kept (2n
floats), cached per graph; the (n-1)^2 inverse itself is dropped once read.

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

RESIDUAL_BOUND = 1e-8
# Entries of one stack of deleted-edge matrices inverted in a single LAPACK
# call; bounds the transient memory of the per-edge inverses at any size.
_BATCH_ENTRIES = 4_000_000


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


def _grounded_inverse(lap: np.ndarray, ground: int = 0) -> np.ndarray:
    """Invert the Laplacian with one row/column removed, padded back with zeros.

    The returned matrix K satisfies r(x, y) = K[x,x] + K[y,y] - 2 K[x,y]
    whenever the graph is connected, and r(x, ground) = K[x,x].
    """
    n = lap.shape[0]
    full = np.zeros((n, n))
    if n == 1:
        return full
    keep = [i for i in range(n) if i != ground]
    reduced = lap[np.ix_(keep, keep)]
    try:
        inv = np.linalg.inv(reduced)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"grounded Laplacian is singular: {exc}") from exc
    residual = np.abs(reduced @ inv - np.eye(n - 1)).max()
    if residual > RESIDUAL_BOUND:
        raise SingularSystem(f"grounded Laplacian solve residual {residual:.3e} exceeds {RESIDUAL_BOUND:.0e}")
    full[np.ix_(keep, keep)] = inv
    return full


def _pair_resistance(K: np.ndarray, x: int, y: int) -> float:
    return K[x, x] + K[y, y] - 2.0 * K[x, y]


def effective_resistance(g: MetrizedGraph, x: int, y: int) -> ResistanceValue:
    """Effective resistance between two vertices of the (connected) graph."""
    x = g.check_vertex(x)
    y = g.check_vertex(y)
    if x == y:
        return 0.0
    K = _grounded_inverse(_laplacian(g.vertex_count, g.edges))
    return _pair_resistance(K, x, y)


def resistance_matrix(g: MetrizedGraph) -> np.ndarray:
    """All-pairs effective resistances from a single grounded factorization."""
    K = _grounded_inverse(_laplacian(g.vertex_count, g.edges))
    d = np.diag(K)
    return d[:, None] + d[None, :] - 2.0 * K


def voltage_j(g: MetrizedGraph, z: int, x: int, y: int) -> float:
    """Potential at x when unit current enters at y and exits at z, grounded at z.

    Equal to (r(x,z) + r(y,z) - r(x,y)) / 2; non-negative, zero at x = z,
    and equal to r(y,z) at x = y.
    """
    z = g.check_vertex(z)
    x = g.check_vertex(x)
    y = g.check_vertex(y)
    K = _grounded_inverse(_laplacian(g.vertex_count, g.edges), ground=z)
    # With the ground at z: r(x,z) = K[x,x], r(y,z) = K[y,y], and the
    # half-sum collapses to the single inverse entry K[x,y].
    return K[x, y]




@lru_cache(maxsize=16384)
def _deleted_edge_inverses(g: MetrizedGraph):
    """Deleted-edge resistances from both endpoints of every edge.

    Returns (to_first, to_second): for edge i = (a, b), to_first[i][x] is
    r(x, a) and to_second[i][x] is r(x, b) in the graph minus edge i, for
    every vertex x (None for bridges and self-loops).  That is all the
    invariants read of each deleted-edge inverse, so these 2n floats per
    edge are what the cache keeps; they are independent of any base vertex
    and shared across bases.

    The grounded Laplacian is built once and each deleted-edge matrix is a
    rank-one correction of it.  The matrices are inverted in batches of at
    most _BATCH_ENTRIES entries, so the transient stack has a fixed bound.
    Each resistance is read as K[x,x] + K[v,v] - 2 K[x,v] from the column of
    the endpoint v: the float inverse is not exactly symmetric, and rows
    would give different last bits.
    """
    n = g.vertex_count
    edges = g.edges
    bridge_set = g.bridges()
    reduced = _laplacian(n, edges)[1:, 1:]
    solve_ids = [i for i, (a, b, _) in enumerate(edges) if a != b and i not in bridge_set]
    batch = max(1, _BATCH_ENTRIES // (n * n))

    to_first: list[np.ndarray | None] = [None] * len(edges)
    to_second: list[np.ndarray | None] = [None] * len(edges)
    for start in range(0, len(solve_ids), batch):
        chunk = solve_ids[start:start + batch]
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
        residual = np.abs(np.matmul(stack, inv) - np.eye(n - 1)[None, :, :]).max()
        if residual > RESIDUAL_BOUND:
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
