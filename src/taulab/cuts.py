"""Edge and vertex connectivity of the underlying multigraph.

Lengths play no role here; only the incidence structure matters.  Both
connectivities come from one integer max-flow routine, `_flow_into`, capped
at the best value found so far, and one sink sweep, `_sweep`, which grows
the source set in the manner of Hao and Orlin (1994): once a sink is
finished, it becomes a source for every later flow.  The sweep takes the
sinks in index order.  Any order would be exact: the lemmas below hold for
every order.  A flow runs on a capacity map, one dict of arc capacities per
node: for the edge count a copy of the multigraph's multiplicity map, for
the vertex count the split network.  Each flow gets a fresh map, built only
when the flow runs, so a sweep that runs no flow builds no network.

Most sinks need no flow at all.  Before a flow, the sweep counts short
disjoint paths from the sources into the sink: the direct ones (the sink's
attachment), two-hop detours through one further vertex and, while the
count is still below the best value, longer detours: three hops in the edge
count, three and then four in the vertex count.  Such a count is a lower
bound on the flow, so once it reaches the best value the flow could not
lower that value, and the sink is merged into the sources without one.  The
longer detours settle the first sinks of a sweep, whose few sources are too
far away for a two-hop detour.  Vertex-disjoint paths need only a set of
the vertices already claimed, so that count goes a hop further; longer edge
paths would need a ledger of the edges each direction took, which is what a
flow keeps.  Each augmenting search grows from both ends, the sources and
the sink, and always widens the smaller frontier, so the two halves meet
near the middle of a path instead of one of them exploring half the network.

Merging a finished sink into the source set stays exact because of a
merging lemma for each connectivity, stated with its proof in the
docstrings of `edge_connectivity` and `vertex_connectivity`.  In both, every
flow value is the size of a real cut or separator, so none is below the
answer, and the first swept sink on the far side of a minimum cut sees only
sources on the near side, so its flow is at most the answer.  A sink the
path count settles has a flow of at least the best value, so skipping its
flow leaves every minimum as it was.  Self-loops never contribute to either
quantity.  Both results live in the graph's memo.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Callable, Iterable

from .errors import TooSmall
from .graphs import MetrizedGraph, graph_memo


# The edge connectivity of a single vertex: it cannot be disconnected.
INFINITE = math.inf


def is_infinite(value) -> bool:
    return value == INFINITE


def _flow_into(cap: list[dict[int, int]], is_source: bytearray, sink: int, limit: int) -> int:
    """Integer max flow from every node marked in is_source into sink, capped at limit.

    cap is a capacity map: cap[u][w] is the capacity of arc u -> w, and
    every arc's reverse is an entry too, at 0 if the network has no such
    arc.  The flow is pushed into cap, which is left holding the residual
    capacities.  Each augmenting search is a breadth-first search from both
    ends at once: backwards from the sink along arcs with residual capacity
    into the reached nodes, and forwards from the sources along arcs with
    residual capacity out of them, one whole level at a time on whichever
    side has the smaller frontier.  It stops when the two sides meet.  When
    either side runs out, the nodes it reached form a closed set that the
    other side never entered, so no augmenting path is left.
    """
    sources = list(compress(range(len(cap)), is_source))
    unreached = [-1] * len(cap)
    for u in sources:
        unreached[u] = -2
    flow = 0
    while flow < limit:
        # ahead[w] is the node one step before w on a path from a source,
        # back[u] the node one step after u on a path to the sink; -2 at a
        # root, -1 unreached.
        ahead = unreached[:]
        back = [-1] * len(cap)
        back[sink] = -2
        forward, backward = sources, [sink]
        meet = -1
        while meet < 0 and forward and backward:
            grown = []
            if len(backward) <= len(forward):
                for w in backward:
                    for u in cap[w]:
                        if back[u] == -1 and cap[u][w] > 0:
                            back[u] = w
                            if ahead[u] != -1:
                                meet = u
                                break
                            grown.append(u)
                    if meet >= 0:
                        break
                backward = grown
            else:
                for u in forward:
                    for w, residual in cap[u].items():
                        if ahead[w] == -1 and residual > 0:
                            ahead[w] = u
                            if back[w] != -1:
                                meet = w
                                break
                            grown.append(w)
                    if meet >= 0:
                        break
                forward = grown
        if meet < 0:
            return flow
        path = []
        w = meet
        while ahead[w] != -2:
            path.append((ahead[w], w))
            w = ahead[w]
        u = meet
        while u != sink:
            path.append((u, back[u]))
            u = back[u]
        push = min(limit - flow, *(cap[u][w] for u, w in path))
        for u, w in path:
            cap[u][w] -= push
            cap[w][u] += push
        flow += push
    return flow


def _sweep(network: Callable[[], list[dict[int, int]]], is_source: bytearray,
           attach: dict[int, int], merge: Callable[[int], Iterable[tuple[int, int]]],
           detour: Callable[[int, int, int], int], best: int) -> int:
    """Run every sink in attach through the capped flow and return the smallest value.

    attach maps each pending sink to its number of direct paths from the
    current sources.  Sinks go in index order.  detour(sink, count, best)
    extends the sink's count of direct paths with disjoint detours, and may
    stop once the count reaches best.  A sink whose count stays below best
    gets a flow capped at best, on the fresh capacity map that network()
    returns; one at or above best cannot improve it and gets none, so a
    sweep that runs no flow builds no network.  Either way merge(sink) then
    marks it as a source and yields (node, gain) pairs that raise the
    attachments of the pending sinks it touches.
    """
    for t in sorted(attach):
        count = attach.pop(t)
        if count < best and detour(t, count, best) < best:
            best = min(best, _flow_into(network(), is_source, t, best))
        for u, gain in merge(t):
            if u in attach:
                attach[u] += gain
    return best


@graph_memo
def edge_connectivity(g: MetrizedGraph) -> int | float:
    """Smallest number of edges whose removal disconnects the graph.

    A single vertex cannot be disconnected, whatever its loops: INFINITE,
    which is math.inf.  Parallel edges count individually; self-loops are
    ignored.

    Sweeps the sinks 1..n-1 from the source set {0}, each finished sink
    joining the sources, with best starting at the smallest non-loop degree
    (a real cut).  Merging lemma: let X be the side of a minimum cut that
    holds 0.  The first swept vertex outside X finds every source inside X,
    so its flow is at most lambda; every flow value is the size of a real
    cut, so none is below lambda.  Hence the result is lambda.

    Path-count lemma: let S be the sources, t the sink, and for each
    pending vertex w let attach(w) count the edges between w and S.  Then
    the flow from S into t is at least

        attach(t) + sum over pending w of min(mult(t, w), attach(w))

    plus the three-hop paths t-w-y-S that a greedy pass finds.  Each
    pending neighbour w of t keeps spare(w) = mult(t, w) - min(mult(t, w),
    attach(w)) edges t-w, and each pending y keeps rem(y), attach(y) less
    the edges y-S that the two-hop paths and earlier three-hop paths took.
    For each pending y other than t adjacent to w, the pass adds k =
    min(spare(w), mult(w, y), rem(y)) paths and lowers spare(w) and rem(y)
    by k.

    Proof: each edge t-S is a path of its own.  Through a pending w, pair
    min(mult(t, w), attach(w)) of the edges t-w with as many edges w-S,
    one of each per path.  A three-hop path takes a spare edge t-w, an
    edge w-y and one of the rem(y) edges y-S.  The edges t-w and w-S
    belong to w alone, spare(w) and rem(y) count only edges that no other
    path took, none of these edges is an edge t-S, and the pass takes at
    most mult(w, y) edges w-y for each ordered pair (w, y).  So two paths
    share an edge only when one runs it w -> y and the other y -> w, and
    there their flows cancel.  The paths together make a flow from S into
    t of their number, which bounds the max flow from below.  A sink whose
    count reaches best has a flow of at least best and is merged without
    one.
    """
    n = g.vertex_count
    if n == 1:
        return INFINITE
    multiplicity: list[dict[int, int]] = [{} for _ in range(n)]
    for a, b, _ in g.edges:
        if a != b:
            multiplicity[a][b] = multiplicity[a].get(b, 0) + 1
            multiplicity[b][a] = multiplicity[b].get(a, 0) + 1
    is_source = bytearray(n)
    is_source[0] = 1
    attach = {t: multiplicity[0].get(t, 0) for t in range(1, n)}

    def merge(t: int) -> Iterable[tuple[int, int]]:
        is_source[t] = 1
        return multiplicity[t].items()

    def detour(t: int, count: int, best: int) -> int:
        near = multiplicity[t]
        spare = {}
        for w, parallel in near.items():
            if w in attach:
                share = min(parallel, attach[w])
                count += share
                if parallel > share:
                    spare[w] = parallel - share
        if count >= best:
            return count
        rem = {}
        for w, left in spare.items():
            for y, parallel in multiplicity[w].items():
                if y in attach:
                    free = rem.get(y, attach[y] - min(near.get(y, 0), attach[y]))
                    k = min(left, parallel, free)
                    rem[y] = free - k
                    left -= k
                    count += k
                    if count >= best:
                        return count
        return count

    best = min(sum(row.values()) for row in multiplicity)
    return _sweep(lambda: [dict(row) for row in multiplicity], is_source, attach,
                  merge, detour, best)


@graph_memo
def vertex_connectivity(g: MetrizedGraph) -> int:
    """Smallest number of vertices whose removal disconnects the graph.

    Needs at least two vertices.  If every pair of vertices is adjacent there
    is nothing to separate, and the value is vertex_count - 1 by convention.
    Parallel edges and loops do not matter here.

    Esfahanian-Hakimi pair reduction: take a vertex v with the fewest
    distinct neighbours, d of them.  A minimum separator either misses v,
    and then cuts v from some non-neighbour, or contains v, and then cuts
    two non-adjacent neighbours of v.  So at most (n - 1 - d) + d(d - 1)/2
    flows are needed, against about n^2/2 for all pairs, and best starts at
    d, since v's neighbours separate it from any non-neighbour.

    The flows run on the split network: vertex u becomes u_in -> u_out with
    capacity 1, and each edge u-w becomes u_out -> w_in and w_out -> u_in
    with capacity above any separator.  A sweep from a vertex s starts with
    the source s_out, takes sinks t that are not adjacent to s, and makes
    only t_in a source once t is finished.  Let R be s's neighbours and the
    finished sinks.  Each capped flow value is the size of a real separator
    between s and its sink: a value below best is a minimum cut below the
    unbounded capacity, so it cuts only split arcs, and their vertices
    separate s from the sink.  So no value is below the vertex connectivity.

    Family 1, v against its non-neighbours, is one sweep from v.  Merging
    lemma: take a minimum separator X that misses v, with v on side A and
    the rest on side B.  A finished t in A or X leaves t_in on the source
    side of X's cut, so the first swept sink in B has a flow of at most |X|.

    Family 2, the non-adjacent pairs of v's neighbours, is one sweep from
    each neighbour x of v over the later neighbours of v that x misses, its
    sources reset for each x.  Merging lemma: take a minimum separator X
    that holds v.  Every vertex of a minimum separator has a neighbour in
    each component of G - X, or dropping it would leave a smaller one; so v
    has neighbours in at least two components.  Let x0 be the first
    neighbour of v outside X, in index order, and C its component.  Every
    other neighbour of v outside X comes later, and some lie outside C, so
    they are sinks of x0's sweep, for they miss x0.  The first such sink y
    finds only sources in C or X: x0_out, and t_in for finished t in C or
    X.  The split arcs of X are the only arcs of positive capacity that
    leave the nodes of C and the in-nodes of X, and y_in is not among those
    nodes, so y's flow is at most |X|.

    Path-count lemma: the flow from a sweep's sources into a sink t_in is
    at least the number of t's neighbours in R plus the number of detours
    that greedy passes find for t's neighbours w outside R.  A detour
    t-w-...-z has 0, 1 or 2 middle vertices, and each pass, by that number,
    tries only the ws that the earlier passes left without a detour.  The
    middle vertices lie outside R and the end z in R; none of them is t or
    a neighbour of t, and none is claimed by an earlier detour.  Proof: a
    neighbour z of t in R gives the path s_out -> z_in -> z_out -> t_in, or
    z_in -> z_out -> t_in when z is a finished sink, through z's split arc
    alone.  A detour adds the split arcs of w and of its middle vertices to
    z's.  Each split arc has capacity 1.  The ws are distinct neighbours of
    t outside R; the middle vertices and ends are not neighbours of t, so
    none is a w or a direct neighbour, and none is claimed twice.  No middle
    vertex is s: each follows w or another middle vertex, which lies
    outside R and so is not a neighbour of s.  So the paths share no split
    arc, their number bounds the flow from below, and a sink whose count
    reaches best is merged without a flow.
    """
    n = g.vertex_count
    if n < 2:
        raise TooSmall("vertex connectivity needs at least 2 vertices")
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for a, b, _ in g.edges:
        if a != b:
            neighbours[a].add(b)
            neighbours[b].add(a)

    v = min(range(n), key=lambda u: len(neighbours[u]))
    near = neighbours[v]
    if len(near) == n - 1:
        return n - 1

    def split_network() -> list[dict[int, int]]:
        """u_in = 2u -> u_out = 2u + 1 at 1, u_out -> w_in at n + 1, reverses at 0."""
        cap = []
        for u, adjacent in enumerate(neighbours):
            cap.append({2 * u + 1: 1} | dict.fromkeys([2 * w + 1 for w in adjacent], 0))
            cap.append({2 * u: 0} | dict.fromkeys([2 * w for w in adjacent], n + 1))
        return cap

    def sweep(s: int, sinks: list[int], best: int) -> int:
        is_source = bytearray(2 * n)
        is_source[2 * s + 1] = 1
        in_r = bytearray(n)
        for u in neighbours[s]:
            in_r[u] = 1

        def merge(t_in: int) -> Iterable[tuple[int, int]]:
            is_source[t_in] = 1
            in_r[t_in // 2] = 1
            return ((2 * w, 1) for w in neighbours[t_in // 2])

        def detour(t_in: int, count: int, best: int) -> int:
            direct = neighbours[t_in // 2]
            claimed = {t_in // 2}

            def reach(u: int, hops: int) -> bool:
                """Claim a path from u through hops middle vertices outside R to an end in R.

                No vertex of it may be t, a neighbour of t or claimed before.
                """
                for y in neighbours[u]:
                    if y in direct or y in claimed or in_r[y] != (hops == 0):
                        continue
                    claimed.add(y)
                    if hops == 0 or reach(y, hops - 1):
                        return True
                    claimed.discard(y)
                return False

            # Two-, three- and four-hop detours, each pass only for the
            # neighbours w that the shorter ones left without a path.
            starts = [w for w in direct if not in_r[w]]
            for hops in range(3):
                left = [w for w in starts if not reach(w, hops)]
                count += len(starts) - len(left)
                if count >= best:
                    break
                starts = left
            return count

        attach = {2 * t: sum(in_r[u] for u in neighbours[t]) for t in sinks}
        return _sweep(split_network, is_source, attach, merge, detour, best)

    best = sweep(v, [t for t in range(n) if t != v and t not in near], len(near))
    ordered = sorted(near)
    for i, x in enumerate(ordered):
        best = sweep(x, [y for y in ordered[i + 1:] if y not in neighbours[x]], best)
    return best
