"""Edge and vertex connectivity of the underlying multigraph.

Lengths play no role here; only the incidence structure matters.  Both
connectivities come from one integer max-flow routine, `_flow_into`, capped
at the best value found so far, and one sink sweep, `_sweep`, which grows
the source set in the manner of Hao and Orlin (1994): once a sink's flow
has run (or has been shown unable to improve the best value), that sink
becomes a source for every later flow.  The sweep takes the sinks in index
order; a sink whose attachment to the current source set already reaches
the best value needs no flow.  Any order would be exact: the lemmas below
hold for every order.

Merging a finished sink into the source set stays exact because of a
merging lemma for each connectivity, stated with its proof in the
docstrings of `edge_connectivity` and `vertex_connectivity`.  In both, every
flow value is the size of a real cut or separator, so none is below the
answer, and the first swept sink on the far side of a minimum cut sees only
sources on the near side, so its flow is at most the answer.  Self-loops
never contribute to either quantity.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .circuit import INFINITE, ResistanceValue
from .errors import TooSmall
from .graphs import MetrizedGraph

# A flow network as flat arc arrays: arc i runs into head[i] with capacity
# cap[i], its reverse is arc i ^ 1, and out[u] lists the arcs leaving u.
Network = tuple[list[int], list[int], list[list[int]]]


def _add_arc(net: Network, u: int, w: int, forward: int, backward: int) -> None:
    """Append arc u -> w with capacity forward, then its reverse with capacity backward."""
    head, cap, out = net
    out[u].append(len(head))
    head.append(w)
    cap.append(forward)
    out[w].append(len(head))
    head.append(u)
    cap.append(backward)


def _flow_into(net: Network, is_source: bytearray, sink: int, limit: int) -> int:
    """Integer max flow from every node marked in is_source into sink, capped at limit.

    The capacities are copied once per call.  Each augmenting search is a
    breadth-first search backwards from the sink along arcs with residual
    capacity, and stops at the first source it reaches.
    """
    head, base, out = net
    cap = base[:]
    flow = 0
    while flow < limit:
        # via[u] is the arc from u one step nearer the sink; -1 unreached.
        via = [-1] * len(out)
        via[sink] = -2
        queue = [sink]
        found = -1
        for w in queue:
            for i in out[w]:
                u = head[i]
                if via[u] == -1 and cap[i ^ 1] > 0:
                    via[u] = i ^ 1
                    if is_source[u]:
                        found = u
                        break
                    queue.append(u)
            if found >= 0:
                break
        if found < 0:
            return flow
        push = limit - flow
        u = found
        while u != sink:
            i = via[u]
            push = min(push, cap[i])
            u = head[i]
        u = found
        while u != sink:
            i = via[u]
            cap[i] -= push
            cap[i ^ 1] += push
            u = head[i]
        flow += push
    return flow


def _sweep(net: Network, is_source: bytearray, attach: dict[int, int],
           merge: Callable[[int], Iterable[tuple[int, int]]], best: int) -> int:
    """Run every sink in attach through the capped flow and return the smallest value.

    attach maps each pending sink to a lower bound on its flow from the
    current sources.  Sinks go in index order.  A sink whose attachment is
    below best gets a flow capped at best; one at or above best cannot
    improve it and gets none.  Either way merge(sink) then marks it as a
    source and yields (node, gain) pairs that raise the attachments of the
    pending sinks it touches.
    """
    for t in sorted(attach):
        if attach.pop(t) < best:
            best = min(best, _flow_into(net, is_source, t, best))
        for u, gain in merge(t):
            if u in attach:
                attach[u] += gain
    return best


def edge_connectivity(g: MetrizedGraph) -> ResistanceValue:
    """Smallest number of edges whose removal disconnects the graph.

    A single vertex cannot be disconnected, whatever its loops: INFINITE.
    Parallel edges count individually; self-loops are ignored.

    Sweeps the sinks 1..n-1 from the source set {0}, each finished sink
    joining the sources, with best starting at the smallest non-loop degree
    (a real cut).  Merging lemma: let X be the side of a minimum cut that
    holds 0.  The first swept vertex outside X finds every source inside X,
    so its flow is at most lambda; every flow value is the size of a real
    cut, so none is below lambda.  Hence the result is lambda.
    """
    n = g.vertex_count
    if n == 1:
        return INFINITE
    multiplicity: list[dict[int, int]] = [{} for _ in range(n)]
    for a, b, _ in g.edges:
        if a != b:
            multiplicity[a][b] = multiplicity[a].get(b, 0) + 1
            multiplicity[b][a] = multiplicity[b].get(a, 0) + 1
    net: Network = ([], [], [[] for _ in range(n)])
    for a in range(n):
        for b, count in multiplicity[a].items():
            if a < b:
                _add_arc(net, a, b, count, count)
    is_source = bytearray(n)
    is_source[0] = 1

    def merge(t: int) -> Iterable[tuple[int, int]]:
        is_source[t] = 1
        return multiplicity[t].items()

    attach = {t: multiplicity[0].get(t, 0) for t in range(1, n)}
    best = min(sum(row.values()) for row in multiplicity)
    return _sweep(net, is_source, attach, merge, best)


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
    with capacity above any separator.

    Family 1, v against its non-neighbours, is one sweep from the source
    v_out; each finished sink t makes only t_in a source.  A sink's
    attachment counts its neighbours that are neighbours of v or finished
    sinks: each gives a path through that neighbour's split arc alone.
    Merging lemma: take a minimum separator X that misses v, with v on side
    A and the rest on side B.  A finished t in A or X leaves t_in on the
    source side of X's cut, so the first swept sink in B has a flow of at
    most |X|.  Every flow value is still the size of a real separator
    between v and the sink, so none is below the vertex connectivity.

    Family 2, the non-adjacent pairs of v's neighbours, runs single-source
    capped flows from x_out into y_in.
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

    unbounded = n + 1
    net: Network = ([], [], [[] for _ in range(2 * n)])
    for u in range(n):
        _add_arc(net, 2 * u, 2 * u + 1, 1, 0)
        for w in neighbours[u]:
            _add_arc(net, 2 * u + 1, 2 * w, unbounded, 0)
    is_source = bytearray(2 * n)
    is_source[2 * v + 1] = 1

    def merge(t_in: int) -> Iterable[tuple[int, int]]:
        is_source[t_in] = 1
        return ((2 * w, 1) for w in neighbours[t_in // 2])

    attach = {2 * t: len(neighbours[t] & near) for t in range(n) if t != v and t not in near}
    best = _sweep(net, is_source, attach, merge, len(near))

    is_source = bytearray(2 * n)
    ordered = sorted(near)
    for i, x in enumerate(ordered):
        is_source[2 * x + 1] = 1
        for y in ordered[i + 1:]:
            if y not in neighbours[x]:
                best = min(best, _flow_into(net, is_source, 2 * y, best))
        is_source[2 * x + 1] = 0
    return best
