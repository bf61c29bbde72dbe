"""Edge and vertex connectivity of the underlying multigraph.

Lengths play no role here; only the incidence structure matters.  Both
connectivities are computed deterministically with small augmenting-path
max-flow runs: n - 1 of them for edge connectivity, and for vertex
connectivity only the pairs that touch one minimum-degree vertex (the
Esfahanian-Hakimi reduction), at most (n - 1 - d) + d(d - 1)/2 of them
when that vertex has d distinct neighbours.  Self-loops never contribute to
either quantity.
"""

from __future__ import annotations

from collections import deque

from .circuit import INFINITE, ResistanceValue
from .errors import TooSmall
from .graphs import MetrizedGraph


def _max_flow(capacity: list[dict[int, int]], source: int, sink: int) -> int:
    """Integer max flow by BFS augmentation on an adjacency-dict residual graph."""
    flow = 0
    n = len(capacity)
    while True:
        parent = [-1] * n
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] == -1:
            u = queue.popleft()
            for w, cap in capacity[u].items():
                if cap > 0 and parent[w] == -1:
                    parent[w] = u
                    queue.append(w)
        if parent[sink] == -1:
            return flow
        # Find the bottleneck on the path, then push it.
        bottleneck = None
        w = sink
        while w != source:
            u = parent[w]
            cap = capacity[u][w]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            w = u
        w = sink
        while w != source:
            u = parent[w]
            capacity[u][w] -= bottleneck
            capacity[w][u] = capacity[w].get(u, 0) + bottleneck
            w = u
        flow += bottleneck


def edge_connectivity(g: MetrizedGraph) -> ResistanceValue:
    """Smallest number of edges whose removal disconnects the graph.

    A single vertex cannot be disconnected, whatever its loops: INFINITE.
    Parallel edges count individually; self-loops are ignored.
    """
    n = g.vertex_count
    if n == 1:
        return INFINITE
    base: list[dict[int, int]] = [dict() for _ in range(n)]
    for a, b, _ in g.edges:
        if a == b:
            continue
        base[a][b] = base[a].get(b, 0) + 1
        base[b][a] = base[b].get(a, 0) + 1
    best = None
    for t in range(1, n):
        capacity = [dict(row) for row in base]
        cut = _max_flow(capacity, 0, t)
        if best is None or cut < best:
            best = cut
    return best


def vertex_connectivity(g: MetrizedGraph) -> int:
    """Smallest number of vertices whose removal disconnects the graph.

    Needs at least two vertices.  If every pair of vertices is adjacent there
    is nothing to separate, and the value is vertex_count - 1 by convention.
    Parallel edges and loops do not matter here.

    Esfahanian-Hakimi pair reduction: take a vertex v with the fewest
    distinct neighbours, d of them.  A minimum separator either misses v,
    and then cuts v from some non-neighbour, or contains v, and then cuts
    two non-adjacent neighbours of v.  So only v against each non-neighbour
    and the non-adjacent pairs of neighbours need a max-flow: at most
    (n - 1 - d) + d(d - 1)/2 of them, against about n^2/2 for all pairs.
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
    near = sorted(neighbours[v])
    if len(near) == n - 1:
        return n - 1
    pairs = [(v, w) for w in range(n) if w != v and w not in neighbours[v]]
    pairs += [(x, y) for i, x in enumerate(near) for y in near[i + 1:] if y not in neighbours[x]]

    # Node-splitting reduction: vertex u becomes u_in = 2u, u_out = 2u + 1
    # with unit capacity across, while graph edges get effectively unbounded
    # capacity between the relevant sides.  The network is the same for every
    # pair: the flow leaves s_out and ends at t_in, so no augmenting path
    # uses the split arcs of s or t.
    unbounded = n * n + 1
    base: list[dict[int, int]] = [dict() for _ in range(2 * n)]
    for u in range(n):
        base[2 * u][2 * u + 1] = 1
        for w in neighbours[u]:
            base[2 * u + 1][2 * w] = unbounded
    # Removing v's neighbours separates v from any non-neighbour.
    best = len(near)
    for s, t in pairs:
        best = min(best, _max_flow([dict(row) for row in base], 2 * s + 1, 2 * t))
    return best
