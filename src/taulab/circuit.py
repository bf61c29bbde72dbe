"""The resistive-circuit layer: effective resistance data.

The circuit has conductance 1/length per edge (parallel edges added,
self-loops skipped).  Two routes compute its resistances.

GTH elimination (Grassmann, Taksar and Heyman 1985) removes vertices from
per-vertex conductance maps by star-mesh steps whose pivot is the sum of
the removed vertex's conductances, so no step subtracts and each result
keeps a small relative error whatever the spread of lengths (O'Cinneide
1993).  effective_resistance reduces the network onto its two terminals.
An edge's data at a base reduces G - e onto {a, b, base}.  The vertices
eliminated there never read the a-b entry, so all edges between a and b
share one reduction of G without any a-b edge, per base, and each edge
then adds the other a-b conductances and the recorded fills of that entry
in the order its own reduction would (_pair_stars): the same bits as one
reduction per edge.  GTH serves every non-bridge edge of a graph under
RANK_ONE_MIN_VERTICES and each edge that the closed-form route rejects.
On that all-GTH route the reductions run on the graph's loopless core
(graphs.loopless_core) and are memoized there (_core_arms): loops carry no
current, so graphs that differ only in self-loops, such as the
contractions of parallel twins, share them bit for bit.

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

Both routes land in one layout, all_edge_circuit_data: per base, the
deleted-edge resistance and the two star arms of every edge as read-only
float64 arrays indexed by edge, next to the lengths and the self-loop and
bridge masks.  The invariants and the identity catalog read every per-edge
quantity from these columns.  A self-loop holds its exact limit there (R
and both arms 0.0); a bridge has no finite deleted-edge resistance, so its
entries are NaN and its limits are applied by whoever reads the mask.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import SingularSystem
from .graphs import MetrizedGraph, graph_memo, loopless_core

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
# on 6-regular multigraphs, one BLAS thread, 2-core x86-64, GTH (one
# reduction per endpoint pair) against the closed form, median of 10
# graphs, at one base: 0.17 against 0.09 ms at n = 6, 1.1 against 0.15 at
# n = 10 and 3.6 against 0.17 at n = 14; at every base: 1.2 against 0.23 ms
# at n = 6, 11 against 0.40 at n = 10 and 46 against 0.51 at n = 14.
RANK_ONE_MIN_VERTICES = 10
_EPS = np.finfo(float).eps


def _laplacian(vertex_count: int, edges) -> np.ndarray:
    """The weighted Laplacian, conductance 1/length per edge, self-loops left out.

    Each entry takes its conductances in edge order, the order of the
    per-edge loop this replaces, so the matrix keeps its bits: np.add.at
    and np.subtract.at apply repeated indices one at a time, in order.
    """
    lap = np.zeros((vertex_count, vertex_count))
    if not edges:
        return lap
    a, b, length = map(np.array, zip(*edges))
    keep = a != b
    a, b = a[keep], b[keep]
    c = np.repeat(1.0 / length[keep], 2)
    ends = np.column_stack((a, b)).ravel()
    others = np.column_stack((b, a)).ravel()
    np.add.at(lap, (ends, ends), c)
    np.subtract.at(lap, (ends, others), c)
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


def _conductances(vertex_count: int, edges) -> list[dict[int, float]]:
    """Per-vertex maps neighbour -> conductance, parallel edges added in edge order, loops left out."""
    cond: list[dict[int, float]] = [{} for _ in range(vertex_count)]
    for a, b, length in edges:
        if a != b:
            c = 1.0 / length
            cond[a][b] = cond[a].get(b, 0.0) + c
            cond[b][a] = cond[b].get(a, 0.0) + c
    return cond


def _eliminate(cond: list[dict[int, float]], keep, pair=()) -> list[float]:
    """Star-mesh eliminate, in place, every vertex outside keep (GTH).

    Removing v joins each pair u, w of its neighbours by c_vu c_vw / P,
    where the pivot P is the sum of v's conductances: the Schur complement
    step with its diagonal taken as a sum, never as a difference.  The
    fewest-neighbours vertex goes first, lowest index on ties, to limit
    fill-in.  A fill between the two vertices of ``pair``, both kept, is
    not added to cond: the fills between them are returned, in the order
    they were made.
    """
    fills = []
    pending = [v for v in range(len(cond)) if v not in keep]
    while pending:
        v = pending[0]
        for u in pending:
            if len(cond[u]) < len(cond[v]):
                v = u
        pending.remove(v)
        row = cond[v]
        pivot = sum(row.values())
        for u in row:
            del cond[u][v]
        for (u, cu), (w, cw) in combinations(row.items(), 2):
            c = cu * cw / pivot
            if u in pair and w in pair:
                fills.append(c)
            else:
                cond[u][w] = cond[u].get(w, 0.0) + c
                cond[w][u] = cond[w].get(u, 0.0) + c
    return fills


def _pair_stars(cond, edges, parallel: list[int], routed: list[int], base: int) -> list[tuple[float, float]]:
    """Star arms toward base of each routed edge between one endpoint pair, from one reduction.

    ``cond`` holds G's conductance maps (left unchanged), ``parallel`` every
    edge between the pair's endpoints a, b in edge order, and ``routed`` the
    ones wanted.  G without any a-b edge is reduced onto {a, b, base} once.
    The eliminated vertices never read the a-b entry, so G - e reduces the
    same way for each a-b edge e, and its a-b conductance g_ab is the other
    a-b edges' conductances in edge order followed by the recorded fills:
    the additions, in their order, of reducing G - e itself.  The reduced
    triangle g_ab, g_ap, g_bp has the star arm_a = g_bp / D and
    arm_b = g_ap / D with D = g_ab g_ap + g_ab g_bp + g_ap g_bp.  A base at
    an endpoint leaves the two-terminal case: arm 0 there, 1/g_ab at the
    other.
    """
    a, b, _ = edges[parallel[0]]
    cond = [dict(row) for row in cond]
    del cond[a][b], cond[b][a]
    fills = _eliminate(cond, {a, b, base}, (a, b))
    conductance = [1.0 / edges[i][2] for i in parallel]
    stars = []
    for e in routed:
        g_ab = 0.0
        for i, c in zip(parallel, conductance):
            if i != e:
                g_ab += c
        for c in fills:
            g_ab += c
        a, b, _ = edges[e]
        if base == a:
            stars.append((0.0, 1.0 / g_ab))
        elif base == b:
            stars.append((1.0 / g_ab, 0.0))
        else:
            g_ap = cond[a].get(base, 0.0)
            g_bp = cond[b].get(base, 0.0)
            d = g_ab * g_ap + g_ab * g_bp + g_ap * g_bp
            stars.append((g_bp / d, g_ap / d))
    return stars


def _gth_stars(g: MetrizedGraph, base: int, routed: list[int]) -> dict[int, tuple[float, float]]:
    """Star arms toward base of the routed edges, by edge: one _pair_stars reduction per endpoint pair."""
    edges = g.edges
    parallel: dict[tuple[int, int], list[int]] = {}
    for i, (a, b, _) in enumerate(edges):
        if a != b:
            parallel.setdefault((a, b) if a < b else (b, a), []).append(i)
    wanted = set(routed)
    cond = _conductances(g.vertex_count, edges)
    stars = {}
    for ids in parallel.values():
        chosen = [i for i in ids if i in wanted]
        if chosen:
            stars.update(zip(chosen, _pair_stars(cond, edges, ids, chosen, base)))
    return stars


@graph_memo
def _core_arms(core: MetrizedGraph, base: int) -> tuple:
    """Star arms toward base of every edge of a loopless core, by edge; None at bridges.

    Held in the core's memo, so every graph with this core (graphs that
    differ only in self-loops) shares the reductions.  Loops carry no
    current and _conductances, _pair_stars and _eliminate never read one,
    so these are the bits a reduction of the graph itself gives.  On two
    vertices every edge joins the base to the other vertex and nothing is
    eliminated, so base 1 mirrors base 0: each edge's arms swap.
    """
    if core.vertex_count == 2 and base == 1:
        return tuple(None if star is None else star[::-1] for star in _core_arms(core, 0))
    bridges = core.bridges()
    routed = [i for i in range(core.edge_count) if i not in bridges]
    stars = _gth_stars(core, base, routed) if routed else {}
    return tuple(stars.get(i) for i in range(core.edge_count))


def effective_resistance(g: MetrizedGraph, x: int, y: int) -> float:
    """Effective resistance between two vertices of the (connected) graph.

    The network is reduced onto {x, y} by GTH elimination; what is left is
    one conductance between them.
    """
    x = g.check_vertex(x)
    y = g.check_vertex(y)
    if x == y:
        return 0.0
    cond = _conductances(g.vertex_count, g.edges)
    _eliminate(cond, {x, y})
    return 1.0 / cond[x][y]


@graph_memo
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
    left to GTH elimination per base (_gth_stars).  closed is None when no
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


class EdgeColumns(NamedTuple):
    """Every edge's circuit data at one base, as read-only arrays indexed by edge.

    ``length`` is float64 and ``loop`` and ``bridge`` are boolean masks.
    ``resistance`` is the effective resistance between the edge's endpoints
    once the edge itself is deleted.  Seen from the two endpoints and the
    base, the deleted-edge network reduces to a star with three arms;
    ``arm_first`` and ``arm_second`` are the arms at the first and second
    endpoint, the two the invariants read (through R = arm_first +
    arm_second and the arm gap arm_first - arm_second).  A self-loop holds
    its exact limit, 0.0 in all three float columns.  A bridge is masked:
    its three entries are NaN, and whoever reads the mask applies its
    limits (z-term 0, weights R/(L+R) = 1 and L/(L+R) = 0).
    """

    length: np.ndarray
    loop: np.ndarray
    bridge: np.ndarray
    resistance: np.ndarray
    arm_first: np.ndarray
    arm_second: np.ndarray


def all_edge_circuit_data(g: MetrizedGraph, base: int) -> EdgeColumns:
    """Deleted-edge resistance and star arms of every edge toward one base, as columns.

    Under RANK_ONE_MIN_VERTICES every non-loop edge reads its arms from
    the loopless core's memo (_core_arms, None at bridges), in edge order.
    From 10 vertices on, edges with closed-form data (_deleted_edge_inverses,
    held in the graph's memo and shared across bases) take R from it and
    their arm gap from one gather of row K[base]: arm_first = (R + gap) / 2
    and arm_second = R - arm_first.  A self-loop's R is set to 0 first, so
    the same arithmetic gives its arms 0.  Every other edge that is neither
    a bridge nor a self-loop is reduced onto {a, b, base} by GTH
    elimination, one reduction per endpoint pair (_pair_stars).  On a GTH
    edge R is the sum of its two arms.  When no edge has closed-form data,
    the columns are collected as Python floats and each becomes one array
    at the end.
    """
    base = g.check_vertex(base)
    edges = g.edges
    loops = [a == b for a, b, _ in edges]
    length = np.array([L for _, _, L in edges], dtype=float)
    loop = np.array(loops, dtype=bool)
    closed = None
    if g.vertex_count < RANK_ONE_MIN_VERTICES:
        core_arms = iter(_core_arms(loopless_core(g), base))
        arms = [(0.0, 0.0) if is_loop else next(core_arms) for is_loop in loops]
        bridge = np.array([star is None for star in arms], dtype=bool)
    else:
        bridges = g.bridges()
        bridge = np.zeros(len(edges), dtype=bool)
        bridge[list(bridges)] = True
        resistance, closed = _deleted_edge_inverses(g)
        routed = [i for i, (r_ab, is_loop) in enumerate(zip(resistance, loops))
                  if r_ab is None and not is_loop and i not in bridges]
        stars = _gth_stars(g, base, routed) if routed else {}
        if closed is None:
            arms = [(0.0, 0.0) if is_loop else stars.get(i) for i, is_loop in enumerate(loops)]
    if closed is None:
        nan = (float("nan"),) * 2  # at bridges; every other edge but the loops has its star
        arms = [nan if star is None else star for star in arms]
        R = np.array([arm_a + arm_b for arm_a, arm_b in arms], dtype=float)
        arm_first = np.array([arm_a for arm_a, _ in arms], dtype=float)
        arm_second = np.array([arm_b for _, arm_b in arms], dtype=float)
    else:
        R = np.array(resistance, dtype=float)  # NaN where resistance[i] is None
        R[loop] = 0.0
        K, a_of, b_of, scale, spread = closed
        row = K[base]
        gap = scale * (spread - 2.0 * (row[a_of] - row[b_of]))
        arm_first = 0.5 * (R + gap)
        arm_second = R - arm_first
        for i, (arm_a, arm_b) in stars.items():
            arm_first[i], arm_second[i] = arm_a, arm_b
            R[i] = arm_a + arm_b
    columns = EdgeColumns(length, loop, bridge, R, arm_first, arm_second)
    for column in columns:
        column.setflags(write=False)
    return columns
