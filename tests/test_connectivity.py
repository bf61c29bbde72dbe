import hashlib
import itertools
import math
import random
from collections import deque

import pytest

from taulab import connectivity, cuts, identities, transforms
from taulab.connectivity import N_of, conjecture_margin, lower_bounds
from taulab.cuts import INFINITE, edge_connectivity, is_infinite, vertex_connectivity
from taulab.errors import BridgePresent, DisconnectedGraph, TooLarge, TooSmall
from taulab.fuzzing import random_bridgeless_multigraph, random_connected_multigraph
from taulab.graphs import build_graph, component_labels


def banana(n, length=1.0):
    return build_graph(2, [(0, 1, length)] * n)


def test_edge_connectivity_known_values(triangle, k4, path2):
    assert edge_connectivity(triangle) == 2
    assert edge_connectivity(k4) == 3
    assert edge_connectivity(path2) == 1
    assert edge_connectivity(banana(5)) == 5
    assert is_infinite(edge_connectivity(build_graph(1, [])))
    assert is_infinite(edge_connectivity(build_graph(1, [(0, 0, 1.0)])))
    # Vertices 0-4 form a K5 (degree 4) and vertices 5-8 a doubled K4
    # (degree 6); all three cut edges end at 5, the first vertex swept on the
    # far side.  Its direct edges reach 3 of the best value 4, so a path
    # count that took them twice would skip the one flow that finds the cut.
    pairs = list(itertools.combinations(range(5), 2)) + [(0, 5), (1, 5), (2, 5)]
    pairs += [pair for pair in itertools.combinations(range(5, 9), 2) for _ in range(2)]
    assert edge_connectivity(unit_graph(9, pairs)) == 3
    # The cut around {1, 2} crosses 4 edges, below the smallest degree 5.
    # Sink 1 is swept first and its two-hop detours 1-2-0 and 1-3-0 take
    # all its edges to 3, so a three-hop count that reused them along
    # 1-3-4-0 would reach 6 and skip the one flow that finds the cut.
    pairs = [(1, 2)] * 5 + [(1, 3)] * 2 + [(2, 0)] * 2 + [(3, 0)] * 2 + [(3, 4)] * 2 + [(4, 0)] * 3
    assert edge_connectivity(unit_graph(5, pairs)) == 4


def test_infinite_marker_semantics():
    assert is_infinite(INFINITE)
    assert not is_infinite(1e300)
    assert INFINITE == math.inf
    assert INFINITE >= 5
    assert min(INFINITE, 3) == 3


def test_a_bouquet_meets_every_connectivity_threshold():
    # The paper's hypothesis "edge connectivity 5 or more" is a plain
    # comparison, and a bouquet of loops satisfies it.
    for loops in ([], [(0, 0, 1.0)], [(0, 0, 1.0), (0, 0, 2.5), (0, 0, 0.25)]):
        g = build_graph(1, loops)
        lam = edge_connectivity(g)
        assert lam >= 5 and lam == math.inf and is_infinite(lam)
        # The entries a bouquet has always listed: the quadratic bound at its
        # limit ell / 12, and no equal-length pair.
        report = lower_bounds(g)
        assert report.edge_conn == math.inf
        assert [e.name for e in report.bounds] == [
            "edge-connectivity bound", "vertex-count bound", "length over 108", "genus bound",
        ]
        assert report.bounds[0].bound == g.total_length / 12.0


def test_edge_connectivity_ignores_loops():
    g = build_graph(2, [(0, 1, 1.0), (0, 1, 1.0), (1, 1, 9.0)])
    assert edge_connectivity(g) == 2


def test_vertex_connectivity_known_values(triangle, k4, path2):
    assert vertex_connectivity(triangle) == 2
    assert vertex_connectivity(k4) == 3  # complete: convention v - 1
    assert vertex_connectivity(path2) == 1
    assert vertex_connectivity(banana(3)) == 1  # two vertices: convention v - 1
    prism = build_graph(6, [
        (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
        (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0),
        (0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0),
    ])
    assert vertex_connectivity(prism) == 3
    with pytest.raises(TooSmall):
        vertex_connectivity(build_graph(1, []))


def unit_graph(n, pairs):
    return build_graph(n, [(a, b, 1.0) for a, b in pairs])


def brute_vertex_connectivity(g):
    """Smallest vertex set whose removal leaves a disconnected rest; v - 1 if none."""
    n = g.vertex_count
    for size in range(n - 1):
        for removed in itertools.combinations(range(n), size):
            keep = [u for u in range(n) if u not in removed]
            index = {u: i for i, u in enumerate(keep)}
            rest = [(index[a], index[b], 1.0) for a, b, _ in g.edges if a in index and b in index]
            if max(component_labels(len(keep), rest)) > 0:
                return size
    return n - 1


def test_vertex_connectivity_matches_brute_force():
    rng = random.Random(2718)
    graphs = [random_connected_multigraph(rng, 9, 18) for _ in range(150)]
    while len(graphs) < 300:
        n = rng.randint(2, 9)
        density = rng.uniform(0.2, 1.0)
        pairs = [(a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < density]
        try:
            graphs.append(unit_graph(n, pairs))
        except DisconnectedGraph:
            continue
    for g in graphs:
        if g.vertex_count >= 2:
            assert vertex_connectivity(g) == brute_vertex_connectivity(g), g


def test_vertex_connectivity_of_named_graphs():
    cycle8 = unit_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    petersen = unit_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(i, i + 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    k34 = unit_graph(7, [(a, b) for a in range(3) for b in range(3, 7)])
    wheel6 = unit_graph(7, [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)])
    # Vertex 0 has the fewest distinct neighbours (lowest index among the
    # 4-neighbour vertices) and is the only cut vertex, so only a flow
    # between two of its neighbours can find it.
    two_k5 = unit_graph(11, [(0, 1), (0, 2), (0, 6), (0, 7)]
                        + list(itertools.combinations(range(1, 6), 2))
                        + list(itertools.combinations(range(6, 11), 2)))
    for g, expected in ((cycle8, 2), (petersen, 3), (k34, 3), (wheel6, 3), (two_k5, 1)):
        assert vertex_connectivity(g) == expected
        assert brute_vertex_connectivity(g) == expected


def random_six_regular(rng, n):
    """Random multigraph with every degree 6: stubs paired at random until loopless and connected."""
    while True:
        stubs = [v for v in range(n) for _ in range(6)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if any(a == b for a, b in pairs):
            continue
        try:
            return unit_graph(n, pairs)
        except DisconnectedGraph:
            continue


def max_flow(capacity, source, sink):
    """Reference integer max flow: BFS augmentation on an adjacency-dict residual graph."""
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


def all_pairs_vertex_connectivity(g):
    """Reference: one split-network max-flow per non-adjacent pair."""
    n = g.vertex_count
    adjacent = {(a, b) for a, b, _ in g.edges} | {(b, a) for a, b, _ in g.edges}
    best = n - 1
    for s, t in itertools.combinations(range(n), 2):
        if (s, t) in adjacent:
            continue
        capacity = [dict() for _ in range(2 * n)]
        for u in range(n):
            capacity[2 * u][2 * u + 1] = 1 if u not in (s, t) else n
        for a, b in adjacent:
            capacity[2 * a + 1][2 * b] = n
        best = min(best, max_flow(capacity, 2 * s + 1, 2 * t))
    return best


def pairwise_edge_connectivity(g):
    """Reference: one max-flow from vertex 0 to every other vertex."""
    n = g.vertex_count
    best = None
    for t in range(1, n):
        capacity = [dict() for _ in range(n)]
        for a, b, _ in g.edges:
            if a != b:
                capacity[a][b] = capacity[a].get(b, 0) + 1
                capacity[b][a] = capacity[b].get(a, 0) + 1
        cut = max_flow(capacity, 0, t)
        best = cut if best is None else min(best, cut)
    return best


def test_vertex_connectivity_flow_count_on_mid_size_graphs(monkeypatch):
    rng = random.Random(6006)
    real = cuts._flow_into
    calls = []

    def counted(cap, is_source, sink, limit):
        calls.append(sink)
        return real(cap, is_source, sink, limit)

    flows = 0
    for n in (20, 30, 45, 60):
        g = random_six_regular(rng, n)
        expected = all_pairs_vertex_connectivity(g)
        d = min(len({b if a == u else a for a, b, _ in g.edges if u in (a, b)}) for u in range(n))
        calls.clear()
        monkeypatch.setattr(cuts, "_flow_into", counted)
        assert vertex_connectivity(g) == expected
        monkeypatch.setattr(cuts, "_flow_into", real)
        assert len(calls) <= (n - 1 - d) + d * (d - 1) // 2, (n, d, len(calls))
        flows += len(calls)
    # The path count may settle every sink of a graph (it does at n = 20,
    # 30 and 45), but not of all four: the counting wrapper must be reached.
    assert flows > 0


def brute_edge_connectivity(g):
    """Fewest non-loop edges crossing between a vertex set holding 0 and its complement."""
    n = g.vertex_count
    best = None
    for mask in range(1, 2 ** (n - 1)):
        side = {0} | {u for u in range(1, n) if mask >> (u - 1) & 1 == 0}
        crossing = sum(1 for a, b, _ in g.edges if (a in side) != (b in side))
        best = crossing if best is None else min(best, crossing)
    return best


def test_edge_connectivity_matches_brute_force():
    rng = random.Random(1414)
    seen = {"loop": 0, "parallel": 0, "bridge": 0}
    for _ in range(300):
        g = random_connected_multigraph(rng, 9, rng.randint(8, 24))
        pairs = [(min(a, b), max(a, b)) for a, b, _ in g.edges if a != b]
        seen["loop"] += any(a == b for a, b, _ in g.edges)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        seen["bridge"] += not g.is_bridgeless()
        assert edge_connectivity(g) == brute_edge_connectivity(g), g
    assert min(seen.values()) >= 30, seen


def planted_cut(rng, sizes, crossing):
    """Multigraph clusters of 3 or more vertices, every pair doubled or tripled, in a chain.

    Consecutive clusters are joined by `crossing` edges.  A cut inside a
    cluster crosses at least 4 edges, so the edge connectivity is `crossing`
    whenever that is below 4.
    """
    pairs, start = [], 0
    for k, size in enumerate(sizes):
        members = range(start, start + size)
        for a, b in itertools.combinations(members, 2):
            pairs += [(a, b)] * rng.randint(2, 3)
        pairs.append((start, start))
        if k:
            pairs += [(rng.randrange(start - sizes[k - 1], start), rng.randrange(start, start + size))
                      for _ in range(crossing)]
        start += size
    order = list(range(start))
    rng.shuffle(order)
    return unit_graph(start, [(order[a], order[b]) for a, b in pairs])


def test_edge_connectivity_below_minimum_degree():
    rng = random.Random(3030)
    for _ in range(40):
        crossing = rng.randint(1, 3)
        g = planted_cut(rng, [rng.randint(3, 6) for _ in range(rng.randint(2, 4))], crossing)
        degree = min(sum(a != b and u in (a, b) for a, b, _ in g.edges) for u in range(g.vertex_count))
        lam = edge_connectivity(g)
        assert lam == crossing < degree, g
        assert lam == pairwise_edge_connectivity(g)
        if g.vertex_count <= 9:
            assert lam == brute_edge_connectivity(g)


def planted_separator(rng, n, separator, v_inside, neighbour_inside=False):
    """Two dense halves joined only through the vertices 0..separator-1.

    With v_inside, vertex 0 has the fewest distinct neighbours, two in each
    half, so only a separator holding it is smallest.  Otherwise every
    separator vertex is dense and the sparsest vertex lies in a half.  With
    neighbour_inside as well, vertex 0 is also joined to vertex 1, so its
    first neighbour lies in the separator too.
    """
    pairs = [(0, 1)] if neighbour_inside else []
    halves = list(range(separator, n))
    rng.shuffle(halves)
    for half in (halves[:len(halves) // 2], halves[len(halves) // 2:]):
        pairs += [(a, b) for a, b in itertools.combinations(half, 2) if rng.random() < 0.8]
        for x in range(separator):
            if v_inside and x == 0:
                pairs += [(0, u) for u in rng.sample(half, 2)]
            else:
                pairs += [(x, u) for u in half if rng.random() < 0.7]
    return unit_graph(n, pairs)


@pytest.mark.parametrize("v_inside", [False, True])
def test_vertex_connectivity_of_planted_separators(v_inside):
    # The separator is smaller than every vertex's neighbourhood, so only a
    # flow can find it: v against a non-neighbour when v misses it, two of
    # v's neighbours when v is in it.
    rng = random.Random(4242 + v_inside)
    for n in (20, 30, 45, 60):
        separator = rng.randint(2, 3)
        g = planted_separator(rng, n, separator, v_inside)
        assert vertex_connectivity(g) == all_pairs_vertex_connectivity(g) == separator, n


def test_vertex_connectivity_when_v_and_its_first_neighbour_share_the_separator():
    # Vertex 0 is the sparsest vertex and vertex 1, its first neighbour, is
    # in the separator as well.  A separator between 1 and any other vertex
    # leaves 1 out, so the sweep from 1 cannot find it; only the sweep from
    # a later neighbour of 0 can, on sources of its own.
    rng = random.Random(4343)
    for n in (20, 30, 45, 60):
        separator = rng.randint(2, 3)
        g = planted_separator(rng, n, separator, True, neighbour_inside=True)
        near = {b if a == 0 else a for a, b, _ in g.edges if 0 in (a, b)}
        assert min(near) == 1 and len(near) == 5
        assert all(sum(u in (a, b) for a, b, _ in g.edges) > 5 for u in range(1, n))
        assert vertex_connectivity(g) == all_pairs_vertex_connectivity(g) == separator, n


def test_flow_into_matches_reference_max_flow():
    # Random capacity maps: parallel arcs summed into one entry, antiparallel
    # arcs, one-way arcs whose reverse entry is 0, several marked sources,
    # and limits from 1 up to more than the total capacity.  Each call runs
    # on a fresh copy of the map and must leave in it a valid flow of the
    # value it returns.
    rng = random.Random(7171)
    for _ in range(400):
        n = rng.randint(2, 30)
        cap = [dict() for _ in range(n)]
        for _ in range(rng.randint(0, 4 * n)):
            u, w = rng.sample(range(n), 2)
            forward = rng.randint(0, 3)
            backward = rng.randint(0, 3) if rng.random() < 0.5 else 0
            for _ in range(rng.choice((1, 1, 2, 3))):
                cap[u][w] = cap[u].get(w, 0) + forward
                cap[w][u] = cap[w].get(u, 0) + backward
        sink = rng.randrange(n)
        is_source = bytearray(n)
        unbounded = sum(sum(row.values()) for row in cap) + 1
        capacity = [dict(row) for row in cap] + [{}]  # node n feeds every source
        for s in rng.sample([u for u in range(n) if u != sink], rng.randint(1, n - 1)):
            is_source[s] = 1
            capacity[n][s] = unbounded
        expected = max_flow(capacity, n, sink)
        for limit in {1, 2, 3, rng.randint(1, unbounded), unbounded}:
            residual = [dict(row) for row in cap]
            value = cuts._flow_into(residual, is_source, sink, limit)
            assert value == min(limit, expected)
            assert [row.keys() for row in residual] == [row.keys() for row in cap]
            moved = [{w: c - residual[u][w] for w, c in row.items()} for u, row in enumerate(cap)]
            for u, row in enumerate(moved):
                for w, f in row.items():
                    assert residual[u][w] >= 0 and f == -moved[w][u], (u, w)
                if not is_source[u] and u != sink:
                    assert sum(row.values()) == 0, u
            assert -sum(moved[sink].values()) == value


def larger_multigraph(rng):
    """A connected multigraph of 10-40 vertices, then extra loops and parallel edges.

    The base is a random 6-regular graph, a chain of planted edge cuts, a
    planted separator or a sparse random multigraph, so the two
    connectivities range from 1 up to the minimum degree.
    """
    kind = rng.randrange(4)
    if kind == 0:
        g = random_six_regular(rng, rng.randint(10, 40))
    elif kind == 1:
        sizes = [rng.randint(3, 8) for _ in range(rng.randint(2, 5))]
        while sum(sizes) < 10:
            sizes.append(3)
        g = planted_cut(rng, sizes, rng.randint(1, 3))
    elif kind == 2:
        g = planted_separator(rng, rng.randint(10, 40), rng.randint(1, 3), rng.random() < 0.5)
    else:
        n = rng.randint(10, 40)
        g = random_connected_multigraph(rng, n, rng.randint(n, 3 * n))
        while g.vertex_count < 10:
            g = random_connected_multigraph(rng, n, rng.randint(n, 3 * n))
    n = g.vertex_count
    edges = [(a, b) for a, b, _ in g.edges]
    edges += [(u, u) for u in rng.sample(range(n), 2)]
    edges += rng.sample([(a, b) for a, b in edges if a != b], 3)
    return unit_graph(n, edges)


def test_connectivity_matches_references_beyond_nine_vertices():
    rng = random.Random(9191)
    kappas, lambdas = set(), set()
    for _ in range(40):
        g = larger_multigraph(rng)
        assert 10 <= g.vertex_count <= 40
        kappa, lam = vertex_connectivity(g), edge_connectivity(g)
        assert kappa == all_pairs_vertex_connectivity(g), g
        assert lam == pairwise_edge_connectivity(g), g
        kappas.add(kappa)
        lambdas.add(lam)
    assert len(kappas) >= 3 and len(lambdas) >= 3, (kappas, lambdas)


def test_short_paths_settle_most_sinks(monkeypatch):
    # On random 6-regular graphs the direct paths and the detours into a
    # sink already reach the best value for most sinks, so fewer than a
    # quarter of the sinks of either sweep get a flow.
    rng = random.Random(8008)
    real = cuts._flow_into
    calls = []

    def counted(cap, is_source, sink, limit):
        calls.append(sink)
        return real(cap, is_source, sink, limit)

    monkeypatch.setattr(cuts, "_flow_into", counted)
    for n in (20, 40, 60, 80):
        g = random_six_regular(rng, n)
        neighbours = [set() for _ in range(n)]
        for a, b, _ in g.edges:
            neighbours[a].add(b)
            neighbours[b].add(a)
        near = sorted(min(neighbours, key=len))
        pairs = sum(y not in neighbours[x] for x, y in itertools.combinations(near, 2))
        calls.clear()
        edge_connectivity(g)
        assert 0 < len(calls) < (n - 1) / 4, (n, len(calls))
        calls.clear()
        vertex_connectivity(g)
        assert len(calls) < (n - 1 - len(near) + pairs) / 4, (n, len(calls))


def two_sided_separator(rng):
    """Two sides of 3-8 vertices that meet only through 1-4 separator vertices.

    Each side has its own edge density, drawn from 0.4-0.9, and each
    separator vertex is joined to each side vertex with probability 0.5, so
    the sides are sparse enough for long detours and the separator may be
    smaller than every neighbourhood.  Labels are shuffled, so the sweeps
    meet the separator at any point of their order.  A disconnected draw is
    drawn again.
    """
    while True:
        sides = [rng.randint(3, 8), rng.randint(3, 8)]
        separator = rng.randint(1, 4)
        n = separator + sum(sides)
        pairs, start = [], separator
        for size in sides:
            density = rng.uniform(0.4, 0.9)
            side = range(start, start + size)
            pairs += [(a, b) for a, b in itertools.combinations(side, 2) if rng.random() < density]
            pairs += [(x, u) for x in range(separator) for u in side if rng.random() < 0.5]
            start += size
        order = list(range(n))
        rng.shuffle(order)
        try:
            return unit_graph(n, [(order[a], order[b]) for a, b in pairs])
        except DisconnectedGraph:
            continue


def test_detour_counts_on_two_sided_separators():
    # A detour count that shares a split arc or an edge between two of its
    # paths can reach the best value on a sink whose flow is below it, and
    # then the flow that finds the cut never runs.  Each pinned draw below
    # caught such a count when the check named beside it was left out; the
    # digest pins the draw's edges.
    caught = {
        (1, 0): "e12fd5b8e9492e6e",   # an end z claimed twice
        (1, 5): "23b24231245ea28f",   # a middle vertex next to t
        (1, 29): "64d2bc7d5a603210",  # an end z next to t, or claimed twice
        (2, 22): "fa51f449f716b9cd",  # a middle vertex claimed twice
        (3, 4): "371e52c69d93d3b5",   # rem(y) ignored in the edge count
    }
    seen = {}
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for draw in range(30):
            g = two_sided_separator(rng)
            kappa, lam = vertex_connectivity(g), edge_connectivity(g)
            assert kappa == all_pairs_vertex_connectivity(g), (seed, draw)
            assert lam == pairwise_edge_connectivity(g), (seed, draw)
            if (seed, draw) in caught:
                edges = repr(sorted((a, b) for a, b, _ in g.edges)).encode()
                seen[seed, draw] = hashlib.sha256(edges).hexdigest()[:16]
    assert seen == caught


def test_each_connectivity_is_computed_once_per_graph(k4):
    # verify --ids all reads lambda in Z_X_BOUND and in EDGECON11, and the
    # 2-edge-cut reduction reads its input's lambda before and inside its loop.
    g = k4.normalize()
    before = edge_connectivity.cache_info()
    reports = {r.identity: r for r in identities.verify_all(g)}
    assert reports["Z_X_BOUND"].applicable and reports["EDGECON11"].applicable
    after = edge_connectivity.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    # A 4-cycle with one chord doubled collapses in two steps to a banana of
    # four edges: three graphs, each computed once.
    c4 = unit_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 2)])
    before = edge_connectivity.cache_info()
    out = transforms.reduce_edge_connectivity_two(c4)
    after = edge_connectivity.cache_info()
    assert (out.vertex_count, out.edge_count) == (2, 4)
    assert (after.misses - before.misses, after.hits - before.hits) == (3, 1)

    before = vertex_connectivity.cache_info()
    lower_bounds(c4)
    lower_bounds(c4)
    after = vertex_connectivity.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_connectivity_sandwich():
    # vertex connectivity <= edge connectivity <= minimum valence
    rng = random.Random(906)
    for _ in range(40):
        g = random_connected_multigraph(rng, 6, 12)
        if g.vertex_count < 2:
            continue
        lam = edge_connectivity(g)
        assert not is_infinite(lam)
        assert vertex_connectivity(g) <= lam <= g.min_valence()


def test_minimum_leaf_width_equals_edge_connectivity(triangle, k4):
    assert N_of(triangle) == 2
    assert N_of(k4) == 3
    assert N_of(banana(4)) == 4
    rng = random.Random(117)
    for _ in range(25):
        g = random_bridgeless_multigraph(rng, 6, 12)
        assert N_of(g) == edge_connectivity(g), g


def test_minimum_leaf_width_preconditions(path2):
    with pytest.raises(BridgePresent):
        N_of(path2)
    with pytest.raises(TooSmall):
        N_of(build_graph(1, [(0, 0, 1.0)]))
    # The 8-ring's lattice has 247 nodes; the 14-ring's 2^13 - 1
    # spanning-tree subsets alone pass the node cap.
    assert N_of(build_graph(8, [(i, (i + 1) % 8, 1.0) for i in range(8)])) == 2
    ring = build_graph(14, [(i, (i + 1) % 14, 1.0) for i in range(14)])
    with pytest.raises(TooLarge, match="more than 5000 nodes"):
        N_of(ring)


def test_conjecture_margin(triangle):
    assert conjecture_margin(triangle) == pytest.approx(1.0 / 12.0 - 1.0 / 108.0, rel=1e-12)
    assert conjecture_margin(build_graph(1, [])) == math.inf


def test_lower_bounds_on_circle(triangle):
    report = lower_bounds(triangle)
    names = [e.name for e in report.bounds]
    # connectivity 2: the quadratic edge-connectivity bound does not apply
    assert "edge-connectivity bound" not in names
    by_name = {e.name: e for e in report.bounds}
    # a circle meets its genus bound and both equal-length bounds exactly
    assert by_name["genus bound"].slack == pytest.approx(0.0, abs=1e-12)
    assert by_name["equal-length lower"].slack == pytest.approx(0.0, abs=1e-12)
    assert by_name["equal-length upper"].slack == pytest.approx(0.0, abs=1e-12)
    assert by_name["vertex-count bound"].bound == pytest.approx(3.0 / 18.0, rel=1e-12)
    assert report.conjecture_margin > 0.0


def test_lower_bounds_on_banana6():
    report = lower_bounds(banana(6).normalize())
    by_name = {e.name: e for e in report.bounds}
    assert by_name["length over 108"].value == pytest.approx(7.0 / 108.0, rel=1e-12)
    assert by_name["length over 108"].slack == pytest.approx(1.0 / 18.0, rel=1e-12)
    assert "length over 300" not in by_name
    # edge connectivity 6 >= 4: the quadratic bound applies
    assert "edge-connectivity bound" in by_name
    assert by_name["edge-connectivity bound"].slack >= -1e-12


def test_lower_bounds_on_banana5():
    report = lower_bounds(banana(5).normalize())
    by_name = {e.name: e for e in report.bounds}
    assert "length over 300" in by_name
    assert "length over 108" not in by_name
    assert by_name["length over 300"].slack >= 0.0


def test_lower_bounds_on_normalized_k4(k4):
    report = lower_bounds(k4.normalize())
    by_name = {e.name: e for e in report.bounds}
    tau_value = 5.0 / 96.0
    lower = by_name["equal-length lower"]
    upper = by_name["equal-length upper"]
    assert lower.value == pytest.approx(tau_value, rel=1e-12)
    assert lower.bound == pytest.approx(5.0 / 96.0, rel=1e-12)  # met exactly
    assert upper.bound == pytest.approx(1.0 / 18.0, rel=1e-12)
    assert lower.slack >= -1e-12 and upper.slack >= -1e-12


def test_lower_bounds_on_point_and_loop():
    report = lower_bounds(build_graph(1, [(0, 0, 1.0)]))
    assert is_infinite(report.edge_conn)
    assert report.vertex_conn is None
    by_name = {e.name: e for e in report.bounds}
    # an infinite connectivity earns the strongest form of the main bound
    assert by_name["edge-connectivity bound"].bound == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert by_name["edge-connectivity bound"].slack == pytest.approx(0.0, abs=1e-12)
    assert by_name["length over 108"].slack > 0.0


def test_bounds_hold_on_fuzzed_graphs():
    rng = random.Random(5005)
    for _ in range(40):
        g = random_connected_multigraph(rng, 6, 12)
        report = lower_bounds(g)
        for entry in report.bounds:
            assert entry.slack >= -1e-9, (entry.name, entry.slack, g)
        assert report.conjecture_margin > 0.0
        assert report.min_valence == g.min_valence()


def test_equal_length_window_requires_equal_lengths(triangle):
    lopsided = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
    report = lower_bounds(lopsided)
    names = [e.name for e in report.bounds]
    assert "equal-length lower" not in names
    assert "equal-length upper" not in names
