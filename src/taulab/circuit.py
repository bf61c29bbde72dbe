"""The resistive-circuit layer: effective resistance data.

The circuit has conductance 1/length per edge (parallel edges added,
self-loops skipped).  Two routes compute its resistances.

GTH elimination (Grassmann, Taksar and Heyman 1985) removes vertices from
per-vertex conductance maps by star-mesh steps whose pivot is the sum of
the removed vertex's conductances, so no step subtracts and each result
keeps a small relative error whatever the spread of lengths (O'Cinneide
1993).  _gth_stars is the one GTH entry point: an edge's data at a base
reduces G - e onto {a, b, base}.  The vertices eliminated there never
read the a-b entry, so all edges between a and b share one reduction of
G without any a-b edge, per base, and each edge then adds the other a-b
conductances and the recorded fills of that entry in the order its own
reduction would: the same bits as one reduction per edge.  _gth_stars
does this in one pass per graph and base: one loop over the edges builds
the conductance maps and the endpoint-pair classes, and a class whose
{a, b, base} is already every vertex reduces nothing and copies no map.
The reduced triangle gives all three arms of the star: at a, at b and at
the base, the last for the crossing A (invariants._star_crossing).
closed_form alone picks the route.  On the all-GTH route (graphs under
RANK_ONE_MIN_VERTICES, or where no edge passes the closed form's guard)
every non-loop, non-bridge edge is reduced this way on the graph itself,
as the closed-form route does for the edges its guard rejects.

The closed-form route inverts the grounded Laplacian (vertex 0 removed)
once per graph.  An edge e = (a, b, L) is in parallel with G - e, so G - e
needs nothing beyond G's own resistances.  With r = r(a, b), s = L - r
and k_x = K[x,a] - K[x,b], the rank-one (Sherman-Morrison) update of the
inverse gives G - e the entries K[x,y] + k_x k_y / s.  So R = L r / s, the
arm gap at base p is L Delta_p / s with Delta_p = r(p, a) - r(p, b), and
r(a, p) in G - e is r(a, p) + (k_a - k_p)^2 / s, which less the arm at a
is the arm at the base, clamped at 0.  Everything that does not depend on
the base is built once per graph into one read-only record, ClosedForm
(_deleted_edge_inverses): K, each edge's R, s, K[a,a] - K[b,b], K[a,a]
and k_a, the ids of the edges left to GTH, and the edge arrays that the
profile's terms read too (ends, lengths and the plain-edge mask, neither
loop nor bridge), all from one array view of the edges (_edge_view, not
kept).  The work per base is one gather of row K[p] and O(m) arithmetic,
plus the GTH reductions of those edges.  The inverse is
checked by the normwise relative residual ||A X - I|| / (||A|| ||X||)
(infinity norms), which does not change when all lengths are scaled; a
suspicious grounded inverse raises SingularSystem.

Both routes land in one layout, all_edge_circuit_data: per base, the
deleted-edge resistance and the three star arms of every edge, indexed by
edge, as tuples of Python floats on the all-GTH route and as float64
arrays on the closed-form route, which the profile sums column-wise and
keeps, read-only, as they are.
A self-loop holds its exact limit there (R and every arm 0.0); a bridge
has no finite deleted-edge resistance, so its entries are NaN and its
limits are applied by whoever reads g.bridges().

numpy is imported inside the functions of the closed-form route, not at
module level: the all-GTH route does not even import it, so a process that
only meets graphs under RANK_ONE_MIN_VERTICES never loads numpy.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, combinations
from operator import add
from typing import NamedTuple, Sequence

from .errors import SingularSystem
from .graphs import MetrizedGraph, graph_memo

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
# reduction per endpoint pair) against the closed form, the median over 10
# graphs of each graph's best of 3, at one base: 0.12 against 0.08 ms at
# n = 6, 0.59 against 0.08 at n = 10 and 1.6 against 0.09 at n = 14; at
# every base: 0.73 against 0.10 ms at n = 6, 5.8 against 0.12 at n = 10 and
# 22 against 0.15 at n = 14.
RANK_ONE_MIN_VERTICES = 10
_EPS = sys.float_info.epsilon


def _edge_view(g: MetrizedGraph):
    """The edges as read-only arrays, in edge order: first ends, second ends and lengths."""
    import numpy as np

    m = len(g.edges)
    flat = np.fromiter(chain.from_iterable(g.edges), dtype=float, count=3 * m).reshape(m, 3)
    view = flat[:, 0].astype(np.intp), flat[:, 1].astype(np.intp), flat[:, 2].copy()
    for column in view:
        column.flags.writeable = False
    return view


def _laplacian(g: MetrizedGraph):
    """The weighted Laplacian of g, conductance 1/length per edge, self-loops left out."""
    return _assemble_laplacian(g.vertex_count, *_edge_view(g))


def _assemble_laplacian(n: int, a, b, length):
    """The n x n Laplacian of the edges given as arrays (_edge_view).

    Each entry takes its conductances in edge order, the order of the
    per-edge loop this replaces, so the matrix keeps its bits: np.add.at
    and np.subtract.at apply repeated indices one at a time, in order.
    """
    import numpy as np

    lap = np.zeros((n, n))
    keep = a != b
    a, b = a[keep], b[keep]
    c = np.repeat(1.0 / length[keep], 2)
    ends = np.column_stack((a, b)).ravel()
    others = np.column_stack((b, a)).ravel()
    np.add.at(lap, (ends, ends), c)
    np.subtract.at(lap, (ends, others), c)
    return lap


def _grounded_inverse(lap):
    """Invert the Laplacian with vertex 0's row/column removed, padded back with zeros.

    The returned matrix K satisfies r(x, y) = K[x,x] + K[y,y] - 2 K[x,y]
    whenever the graph is connected, and r(x, 0) = K[x,x].  The inverse X
    of the reduced matrix A must pass the normwise relative residual check
    ||A X - I|| / (||A|| ||X||) <= RESIDUAL_BOUND (infinity norms), which
    bounds its backward error and, unlike max|A X - I|, is unchanged when
    all lengths are scaled.  A Laplacian row sums to 0 and is positive only
    on the diagonal, so row i of A has absolute sum 2 L_ii + L_i0: ||A|| is
    read in O(n).
    """
    import numpy as np

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

    check = reduced @ inv
    check.flat[::n] -= 1.0  # the diagonal of the (n - 1) x (n - 1) product
    residual = norm(check) / ((2.0 * lap.diagonal()[1:] + lap[1:, 0]).max() * norm(inv))
    if not residual <= RESIDUAL_BOUND:
        raise SingularSystem(f"grounded Laplacian solve residual {residual:.3e} exceeds {RESIDUAL_BOUND:.0e}")
    full[1:, 1:] = inv
    return full


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


def _gth_stars(g: MetrizedGraph, base: int, routed: list[int]) -> tuple[list[float], list[float], list[float]]:
    """Star arms at the first end, the second end and the base of every routed edge, as three edge-indexed lists.

    One pass over the edges builds G's conductance maps (conductance
    1/length per edge, parallel edges added in edge order, loops left out),
    each edge's conductance and the parallel classes.  Each class with a
    routed edge reduces G without any a-b edge onto {a, b, base} once, on
    a copy of the maps.  The eliminated vertices never read the a-b entry,
    so G - e reduces the same way for each a-b edge e, and its a-b
    conductance g_ab is the other a-b edges' conductances in edge order
    followed by the recorded fills: the additions, in their order, of
    reducing G - e itself.  A class whose keep set {a, b, base} already
    holds every vertex (every class when n <= 2, and every class with the
    base off its pair when n = 3) eliminates nothing: it makes no copy and
    reads G's own maps, whose a-b entry it never reads.  The reduced
    triangle g_ab, g_ap, g_bp has the star arm_a = g_bp / D,
    arm_b = g_ap / D and arm_base = g_ab / D with
    D = g_ab g_ap + g_ab g_bp + g_ap g_bp.  A base at an endpoint leaves
    the two-terminal case: arm 0 there and at the base, 1/g_ab at the
    other.  Every edge not routed holds 0.0 in all three lists at a loop
    (its exact limit) and NaN elsewhere.
    """
    edges = g.edges
    cond: list[dict[int, float]] = [{} for _ in range(g.vertex_count)]
    conductance = [0.0] * len(edges)
    parallel: dict[tuple[int, int], list[int]] = {}
    for i, (a, b, length) in enumerate(edges):
        if a != b:
            conductance[i] = c = 1.0 / length
            cond[a][b] = cond[a].get(b, 0.0) + c
            cond[b][a] = cond[b].get(a, 0.0) + c
            parallel.setdefault((a, b) if a < b else (b, a), []).append(i)
    first = [0.0 if a == b else math.nan for a, b, _ in edges]
    second, third = first.copy(), first.copy()
    wanted = set(routed)
    for ids in parallel.values():
        chosen = [i for i in ids if i in wanted]
        if not chosen:
            continue
        a, b, _ = edges[ids[0]]
        keep = {a, b, base}
        reduced, fills = cond, ()
        if len(keep) < len(cond):
            reduced = list(map(dict, cond))
            del reduced[a][b], reduced[b][a]
            fills = _eliminate(reduced, keep, (a, b))
        for e in chosen:
            g_ab = 0.0
            for i in ids:
                if i != e:
                    g_ab += conductance[i]
            for c in fills:
                g_ab += c
            a, b, _ = edges[e]
            if base == a:
                first[e], second[e], third[e] = 0.0, 1.0 / g_ab, 0.0
            elif base == b:
                first[e], second[e], third[e] = 1.0 / g_ab, 0.0, 0.0
            else:
                g_ap, g_bp = reduced[a].get(base, 0.0), reduced[b].get(base, 0.0)
                d = g_ab * g_ap + g_ab * g_bp + g_ap * g_bp
                first[e], second[e], third[e] = g_bp / d, g_ap / d, g_ab / d
    return first, second, third


class ClosedForm(NamedTuple):
    """Everything base-free that the closed-form route reads of one graph; every array read-only.

    The per-edge arrays are indexed by edge.  With r = r(a, b), s = L - r
    and k_x = K[x,a] - K[x,b] in G, an edge that passes the guard has
    R = L r / s and, toward base p, the arm gap L (spread - 2 k_p) / s and
    the arm at p: r(a, p) in G - e, which is
    diagonal + K[p,p] - 2 K[p,a] + (pull - k_p)^2 / s, less the arm at a.
    """

    R: Sequence[float]  # deleted-edge resistance: 0.0 at loops, NaN at bridges and guard rejects
    K: Sequence[Sequence[float]]  # the grounded inverse, vertex 0 removed and padded back with zeros
    a: Sequence[int]  # first ends
    b: Sequence[int]  # second ends
    length: Sequence[float]
    plain: Sequence[bool]  # neither loop nor bridge
    slack: Sequence[float]  # s = L - r where the guard passes, else inf
    spread: Sequence[float]  # K[a,a] - K[b,b]
    diagonal: Sequence[float]  # K[a,a]
    pull: Sequence[float]  # k_a = K[a,a] - K[a,b]
    gth: list[int]  # the plain edges the guard rejects, left to GTH per base (_gth_stars)


@graph_memo
def _deleted_edge_inverses(g: MetrizedGraph) -> ClosedForm | None:
    """Closed-form deleted-edge data of every edge, from one grounded inverse K.

    An edge e = (a, b, L) is in parallel with G - e, so G - e is read off
    G's own resistances: with r = r(a, b), s = L - r and
    Delta_p = r(p, a) - r(p, b) = (K[a,a] - K[b,b]) - 2 (K[p,a] - K[p,b]),
    G - e has R = L r / s between a and b and the arm gap L Delta_p / s
    toward base p, and the arm at p is read through the same update
    (ClosedForm).  An edge takes this route only when s > 0 and the
    rounding error predicted for s, eps (K[a,a] + K[b,b] + 2|K[a,b]|) / s,
    is at most RANK_ONE_ERROR_BOUND.

    Returns None when no edge takes the route, else the graph's ClosedForm,
    whose edge arrays come from one _edge_view of g.  All of it is
    base-free: O(n^3 + m) once per graph, and each base adds one gather of
    row K[p].
    """
    import numpy as np

    a, b, length = _edge_view(g)
    loop = a == b
    plain = ~loop
    plain[list(g.bridges())] = False
    if not plain.any():
        return None
    K = _grounded_inverse(_assemble_laplacian(g.vertex_count, a, b, length))
    d = np.diag(K)
    k_ab = K[a, b]
    r = d[a] + d[b] - 2.0 * k_ab
    s = length - r
    ok = plain & (s > 0) & (_EPS * (d[a] + d[b] + 2.0 * np.abs(k_ab)) <= RANK_ONE_ERROR_BOUND * s)
    if not ok.any():
        return None
    slack = np.where(ok, s, np.inf)
    R = np.where(ok, length / slack * r, np.nan)
    R[loop] = 0.0
    data = ClosedForm(R, K, a, b, length, plain, slack, d[a] - d[b], d[a], d[a] - k_ab,
                      np.flatnonzero(plain & ~ok).tolist())
    for array in data[:-1]:
        array.flags.writeable = False
    return data


def closed_form(g: MetrizedGraph):
    """The route decision: g's ClosedForm record, or None for the all-GTH route.

    A graph takes the closed form when it has RANK_ONE_MIN_VERTICES or
    more vertices and some edge passes the guard; under that size nothing
    is inverted or memoized.  The record is built once per graph
    (_deleted_edge_inverses) and is all that the closed-form route reads
    of g beyond its bridges: the circuit data at every base and the
    profile's terms.
    """
    return None if g.vertex_count < RANK_ONE_MIN_VERTICES else _deleted_edge_inverses(g)


class EdgeColumns(NamedTuple):
    """Every edge's circuit data at one base, one column per quantity, indexed by edge.

    ``resistance`` is the effective resistance between the edge's endpoints
    once the edge itself is deleted.  Seen from the two endpoints and the
    base, the deleted-edge network reduces to a star with three arms;
    ``arm_first`` and ``arm_second`` are the arms at the first and second
    endpoint, the two the invariants read (through R = arm_first +
    arm_second and the arm gap arm_first - arm_second).  ``arm_base``, the
    arm at the base, is read by the crossing A (invariants._star_crossing).
    A self-loop holds its exact limit, 0.0 in every column.  A bridge's
    entries are NaN, and whoever reads g.bridges() applies its limits
    (z-term 0, weights R/(L+R) = 1 and L/(L+R) = 0).  The columns are
    tuples of Python floats on the all-GTH route and float64 arrays on the
    closed-form route.
    """

    resistance: Sequence[float]
    arm_first: Sequence[float]
    arm_second: Sequence[float]
    arm_base: Sequence[float]


def all_edge_circuit_data(g: MetrizedGraph, base: int) -> EdgeColumns:
    """Deleted-edge resistance and star arms of every edge toward one base, as columns.

    One branch per route (closed_form).  On either route the edges left to
    GTH are reduced onto {a, b, base}, at most one reduction per endpoint
    pair, and come back as _gth_stars' edge-indexed arm lists; their R
    is the sum of their two end arms.  On the all-GTH route these are all
    the non-loop, non-bridge edges, and the columns are those lists as
    tuples of Python floats (0.0 at loops, NaN at bridges): numpy is not
    even imported.  On the closed-form route the columns are float64
    arrays: each edge that passed the guard takes R from the graph's
    closed-form data and its arm gap from one gather of row K[base]:
    arm_first = (R + gap) / 2 and arm_second = R - arm_first.  Its arm at
    the base is r(a, base) in G - e, from the same row (ClosedForm), less
    arm_first, clamped at 0; NaN at a bridge and set to 0.0 at a loop.
    The routed entries of the three arm lists overwrite the guard's
    rejects.  A self-loop's R is 0, so the same arithmetic gives its end
    arms 0.
    """
    base = g.check_vertex(base)
    data = closed_form(g)
    if data is None:
        bridges = g.bridges()
        first, second, third = _gth_stars(g, base, [i for i, (a, b, _) in enumerate(g.edges) if a != b and i not in bridges])
        return EdgeColumns(tuple(map(add, first, second)), tuple(first), tuple(second), tuple(third))
    row = data.K[base]
    k = row[data.a] - row[data.b]
    gap = data.length / data.slack * (data.spread - 2.0 * k)
    R = data.R
    arm_first = 0.5 * (R + gap)
    arm_second = R - arm_first
    lean = data.pull - k
    arm_base = (data.diagonal + row[base] - 2.0 * row[data.a] + lean * lean / data.slack - arm_first).clip(0.0)
    arm_base[data.a == data.b] = 0.0
    if data.gth:
        R = R.copy()
        first, second, third = _gth_stars(g, base, data.gth)
        for i in data.gth:
            arm_first[i], arm_second[i], arm_base[i] = first[i], second[i], third[i]
            R[i] = first[i] + second[i]
    return EdgeColumns(R, arm_first, arm_second, arm_base)
