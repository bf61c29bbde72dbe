import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from taulab import circuit
from taulab.circuit import (
    INFINITE,
    all_edge_circuit_data,
    effective_resistance,
    is_infinite,
)
from taulab.errors import DisconnectedGraph
from taulab.fuzzing import random_connected_multigraph
from taulab.graphs import build_graph
from taulab.invariants import tau
from taulab.transforms import delete_edge


def pinv_resistance(g, x, y):
    """Independent oracle: resistance distance from the Laplacian pseudoinverse."""
    lap = np.zeros((g.vertex_count, g.vertex_count))
    for a, b, length in g.edges:
        if a == b:
            continue
        c = 1.0 / length
        lap[a, a] += c
        lap[b, b] += c
        lap[a, b] -= c
        lap[b, a] -= c
    plus = np.linalg.pinv(lap)
    return plus[x, x] + plus[y, y] - 2.0 * plus[x, y]


def test_series_and_parallel():
    series = build_graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
    assert effective_resistance(series, 0, 2) == pytest.approx(5.0, rel=1e-12)
    parallel = build_graph(2, [(0, 1, 2.0), (0, 1, 2.0)])
    assert effective_resistance(parallel, 0, 1) == pytest.approx(1.0, rel=1e-12)


def test_known_symmetric_values(triangle, k4):
    # triangle: 1 in parallel with 1+1
    assert effective_resistance(triangle, 0, 1) == pytest.approx(2.0 / 3.0, rel=1e-12)
    # K4 with unit lengths: every pair sees 1/2
    for x in range(4):
        for y in range(x + 1, 4):
            assert effective_resistance(k4, x, y) == pytest.approx(0.5, rel=1e-12)


def test_loops_do_not_conduct():
    g = build_graph(2, [(0, 1, 4.0), (0, 0, 1.0)])
    assert effective_resistance(g, 0, 1) == pytest.approx(4.0, rel=1e-12)


def test_same_vertex_resistance_is_zero(triangle):
    assert effective_resistance(triangle, 1, 1) == 0.0


def test_resistance_matches_pseudoinverse_oracle():
    rng = random.Random(2024)
    for _ in range(30):
        g = random_connected_multigraph(rng, 6, 12)
        for _ in range(3):
            x = rng.randrange(g.vertex_count)
            y = rng.randrange(g.vertex_count)
            ours = effective_resistance(g, x, y)
            theirs = pinv_resistance(g, x, y)
            assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-12)


def test_triangle_edge_data(triangle):
    data = all_edge_circuit_data(triangle, 0)
    d = data[0]  # edge (0, 1): the rest is a two-edge path of length 2
    assert d.resistance == pytest.approx(2.0, rel=1e-12)
    assert d.arm_first == pytest.approx(0.0, abs=1e-12)  # base sits at the first endpoint
    assert d.arm_second == pytest.approx(2.0, rel=1e-12)
    assert not d.is_loop


def test_arm_sum_recovers_deleted_resistance():
    rng = random.Random(77)
    for _ in range(20):
        g = random_connected_multigraph(rng, 6, 10)
        base = rng.randrange(g.vertex_count)
        for d in all_edge_circuit_data(g, base):
            if d.is_loop or is_infinite(d.resistance):
                continue
            assert d.arm_first + d.arm_second == pytest.approx(d.resistance, rel=1e-9, abs=1e-12)
    # These sizes take the closed form, whose arms are a difference.
    for n in (circuit.RANK_ONE_MIN_VERTICES, 20, 40):
        g = random_regular_graph(rng, n, lambda: 10.0 ** rng.uniform(-1.0, 1.0))
        for base in range(g.vertex_count):
            for d in all_edge_circuit_data(g, base):
                assert d.arm_first + d.arm_second == pytest.approx(d.resistance, rel=1e-9, abs=1e-12)
                assert min(d.arm_first, d.arm_second) >= -1e-12 * d.resistance, (n, base, d)


def test_loop_edge_data():
    g = build_graph(2, [(0, 1, 1.0), (1, 1, 3.0)])
    d = all_edge_circuit_data(g, 0)[1]
    assert d.is_loop
    assert d.resistance == 0.0
    assert d.arm_first == 0.0 and d.arm_second == 0.0


def test_bridge_edge_data(path2):
    d = all_edge_circuit_data(path2, 0)[0]
    assert is_infinite(d.resistance)
    # the arm on the base's side is finite, the far side is infinite
    assert d.arm_first == 0.0
    assert is_infinite(d.arm_second)


def test_deleted_resistance_matches_pseudoinverse_oracle():
    rng = random.Random(4711)
    for _ in range(30):
        g = random_connected_multigraph(rng, 6, 12)
        bridges = g.bridges()
        for d in all_edge_circuit_data(g, 0):
            if d.edge in bridges:
                continue
            a, b, _ = g.edges[d.edge]
            oracle = pinv_resistance(delete_edge(g, d.edge), a, b)
            assert d.resistance == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_deleted_resistance_is_base_independent():
    rng = random.Random(5150)
    for _ in range(10):
        g = random_connected_multigraph(rng, 5, 9)
        per_base = [all_edge_circuit_data(g, p) for p in range(g.vertex_count)]
        for i in range(g.edge_count):
            values = [per_base[p][i].resistance for p in range(g.vertex_count)]
            finite = [v for v in values if not is_infinite(v)]
            assert len(finite) in (0, len(values))
            for v in finite[1:]:
                assert v == pytest.approx(finite[0], rel=1e-9, abs=1e-12)


def test_infinite_marker_semantics():
    assert is_infinite(INFINITE)
    assert not is_infinite(1e300)
    assert str(INFINITE) == "INFINITE"


# -- exact rational references (stdlib only) ----------------------------------


def exact_deleted_inverse(vertex_count, edges, skip):
    """Inverse of the Laplacian without edge ``skip``, grounded at vertex 0, in Fractions.

    Gauss-Jordan elimination on [A | I]; the result is padded back with a
    zero row and column at vertex 0, so r(x, y) = K[x][x] + K[y][y] - 2 K[x][y].
    """
    n = vertex_count
    lap = [[Fraction(0)] * n for _ in range(n)]
    for i, (a, b, length) in enumerate(edges):
        if i == skip or a == b:
            continue
        c = 1 / Fraction(length)
        lap[a][a] += c
        lap[b][b] += c
        lap[a][b] -= c
        lap[b][a] -= c
    size = n - 1
    aug = [lap[x][1:] + [Fraction(int(x == y)) for y in range(1, n)] for x in range(1, n)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        aug[col] = [value / head for value in aug[col]]
        for r in range(size):
            factor = aug[r][col]
            if r != col and factor != 0:
                aug[r] = [value - factor * top for value, top in zip(aug[r], aug[col])]
    K = [[Fraction(0)] * n for _ in range(n)]
    for x in range(size):
        K[x + 1][1:] = aug[x][size:]
    return K


def exact_resistances_to(K, v):
    return [K[x][x] + K[v][v] - 2 * K[x][v] for x in range(len(K))]


def exact_tau(g):
    """tau = (1/4) of the integral of the squared slope of r(., 0), edge by edge.

    On a non-bridge edge (a, b, L) with deleted-edge resistance R and star
    arms A_a, A_b toward vertex 0, the slope at distance t from a is
    (L - 2t - (A_a - A_b)) / (L + R), so the edge contributes
    (L^3/3 + L (A_a - A_b)^2) / (4 (L + R)^2).  A self-loop is the case
    R = 0 and A_a = A_b.  The graph must be bridgeless.
    """
    total = Fraction(0)
    for i, (a, b, length) in enumerate(g.edges):
        L = Fraction(length)
        if a == b:
            total += L / 12
            continue
        K = exact_deleted_inverse(g.vertex_count, g.edges, i)
        R = K[a][a] + K[b][b] - 2 * K[a][b]
        gap = K[a][a] - K[b][b]  # r(0, a) - r(0, b) = A_a - A_b
        total += (L ** 3 / 3 + L * gap * gap) / (4 * (L + R) ** 2)
    return total


def assert_edge_data_is_exact(g):
    """R and both arms of every edge at every base, against the exact route.

    Each value must be within 1e-9 of the largest exact resistance from
    either endpoint of its edge.  The graph must be bridgeless.
    """
    circuit._deleted_edge_inverses.cache_clear()
    per_base = [all_edge_circuit_data(g, p) for p in range(g.vertex_count)]
    for i, (a, b, _) in enumerate(g.edges):
        K = exact_deleted_inverse(g.vertex_count, g.edges, i)
        to_a, to_b = exact_resistances_to(K, a), exact_resistances_to(K, b)
        R = to_b[a]
        scale = max(to_a + to_b)
        for p, data in enumerate(per_base):
            arm = (to_a[p] + R - to_b[p]) / 2
            d = data[i]
            for got, want in ((d.resistance, R), (d.arm_first, arm), (d.arm_second, R - arm)):
                assert abs(Fraction(got) - want) <= Fraction(1e-9) * scale, (g, i, p)


def random_regular_graph(rng, n, lengths):
    """A connected random multigraph on n vertices, every degree 6, no loops."""
    while True:
        stubs = [v for v in range(n) for _ in range(6)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if any(a == b for a, b in pairs):
            continue
        try:
            return build_graph(n, [(a, b, lengths()) for a, b in pairs])
        except DisconnectedGraph:
            continue


def explicit_route(g):
    """Every non-bridge edge's data from a dense inverse of its deleted-edge matrix.

    Each matrix is the grounded Laplacian of the graph without the edge.
    Each resistance is read as K[x,x] + K[v,v] - 2 K[x,v] from the column
    of the endpoint v.
    """
    bridges = g.bridges()
    n = g.vertex_count
    to_first = [None] * g.edge_count
    to_second = [None] * g.edge_count
    for i, (a, b, _) in enumerate(g.edges):
        if a == b or i in bridges:
            continue
        K = np.zeros((n, n))
        K[1:, 1:] = np.linalg.inv(circuit._laplacian(n, g.edges[:i] + g.edges[i + 1:])[1:, 1:])
        d = np.diag(K)
        to_first[i] = d + d[a] - 2.0 * K[:, a]
        to_second[i] = d + d[b] - 2.0 * K[:, b]
    return to_first, to_second


def near_bridge_graph(rng, short, long):
    """A 6-regular core on vertices 0-7 plus the cycle 7-8-9-10-7.

    The cycle's last edge (7, 10), the near-bridge, has length ``short``;
    the path 7-8-9-10 around it has three edges of length ``long``.
    Returns the graph and the near-bridge's edge index.
    """
    core = random_regular_graph(rng, 8, lambda: 10.0 ** rng.uniform(-1.0, 1.0))
    edges = list(core.edges) + [(7, 8, long), (8, 9, long), (9, 10, long), (7, 10, short)]
    return build_graph(11, edges), len(edges) - 1


def wide_spread_k4s(s):
    """K4 with lengths (1, s, 1/s, 1, 1, s) in each of its 60 distinct orders."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    orders = sorted(set(itertools.permutations((1.0, s, 1.0 / s, 1.0, 1.0, s))))
    assert len(orders) == 60
    return [build_graph(4, [(a, b, L) for (a, b), L in zip(pairs, lengths)]) for lengths in orders]


def test_relative_residual_accepts_wide_length_spreads():
    # An absolute residual check rejected some of these orders as singular,
    # and a deleted-edge Laplacian assembled by sums did so from s = 1e10.
    for s in (1e6, 1e8, 1e10, 1e14):
        for g in wide_spread_k4s(s):
            exact = exact_tau(g)
            assert abs(Fraction(tau(g)) - exact) <= Fraction(1e-12) * exact, (s, g.edges)


def test_effective_resistance_matches_exact_rationals_at_wide_spreads():
    for s in (1e6, 1e8, 1e10, 1e14):
        for g in wide_spread_k4s(s):
            K = exact_deleted_inverse(4, g.edges, skip=-1)
            for x, y in itertools.combinations(range(4), 2):
                want = K[x][x] + K[y][y] - 2 * K[x][y]
                got = effective_resistance(g, x, y)
                assert abs(Fraction(got) - want) <= Fraction(1e-14) * want, (s, g.edges, x, y)


def test_rank_one_matches_explicit_route():
    rng = random.Random(8128)
    for n in (circuit.RANK_ONE_MIN_VERTICES, 15, 20, 40, 80, 120):
        g = random_regular_graph(rng, n, lambda: 10.0 ** rng.uniform(-1.0, 1.0))
        circuit._deleted_edge_inverses.cache_clear()
        per_base = [all_edge_circuit_data(g, p) for p in range(n)]
        for i, (to_a, to_b) in enumerate(zip(*explicit_route(g))):
            a = g.edges[i][0]
            R = to_b[a]
            scale = max(to_a.max(), to_b.max())
            for p, data in enumerate(per_base):
                arm = (to_a[p] + R - to_b[p]) / 2
                d = data[i]
                for got, want in ((d.resistance, R), (d.arm_first, arm), (d.arm_second, R - arm)):
                    assert abs(got - want) <= 1e-12 * scale, (n, i, p)


def test_deleted_edge_inverses_memory_is_quadratic_in_vertices():
    # 60 vertices, two parallel edges per pair: m = 3,540, K is 29 KB.
    # Per-edge n-float columns would hold 2 n m floats (3.4 MB).
    rng = random.Random(60)
    pairs = itertools.combinations(range(60), 2)
    g = build_graph(60, [(a, b, rng.uniform(0.1, 10.0)) for a, b in pairs for _ in range(2)])
    assert g.edge_count == 3540
    g.bridges()
    circuit._deleted_edge_inverses.cache_clear()
    tracemalloc.start()
    try:
        resistance, closed = circuit._deleted_edge_inverses(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        circuit._deleted_edge_inverses.cache_clear()
    assert peak < 2 * 2 ** 20, peak
    assert closed is not None and None not in resistance


def test_rank_one_matches_exact_rationals_at_wide_spreads():
    rng = random.Random(1729)
    graphs = []
    for spread in (1.0, 1e2, 1e4, 1e6, 1e8):
        n = circuit.RANK_ONE_MIN_VERTICES + rng.randrange(2)
        # Integer lengths log-uniform in [1, spread]: exact as floats.
        graphs.append(random_regular_graph(rng, n, lambda: float(round(spread ** rng.random()))))
    graphs.append(near_bridge_graph(rng, 1e-3, 1e4)[0])
    for g in graphs:
        assert g.vertex_count >= circuit.RANK_ONE_MIN_VERTICES
        assert_edge_data_is_exact(g)


def test_near_bridge_takes_the_gth_route(monkeypatch):
    routed = set()
    gth_star = circuit._gth_star

    def counting(g, edge, base):
        routed.add(edge)
        return gth_star(g, edge, base)

    monkeypatch.setattr(circuit, "_gth_star", counting)
    rng = random.Random(31)
    g, near_bridge = near_bridge_graph(rng, 1e-3, 1e4)
    circuit._deleted_edge_inverses.cache_clear()
    for p in range(g.vertex_count):
        all_edge_circuit_data(g, p)
    assert routed == {near_bridge}

    routed.clear()
    g = random_regular_graph(rng, 40, lambda: 10.0 ** rng.uniform(-1.0, 1.0))
    all_edge_circuit_data(g, 0)
    assert routed == set()

    # Below RANK_ONE_MIN_VERTICES every edge but the bridges and loops.
    g = build_graph(5, [
        (0, 1, 1.0), (0, 1, 2.5), (1, 2, 0.7), (1, 2, 3.0), (2, 0, 1.3),
        (2, 3, 0.4), (3, 3, 2.0), (3, 4, 1.1), (2, 2, 0.9), (0, 3, 5.0),
    ])
    all_edge_circuit_data(g, 4)
    assert routed == {0, 1, 2, 3, 4, 5, 9}


def test_deleted_unit_edge_beside_a_1e20_edge_matches_exact_rationals():
    # Vertex 1 hangs off vertex 0 by a unit edge and a 1e20 edge.  Without
    # the unit edge, a grounded Laplacian assembled by sums has the row
    # (1 + 1e-20) - 1 = 0 for vertex 1 and is singular in floating point,
    # though the network is well posed.
    rng = random.Random(99)
    core = random_regular_graph(rng, circuit.RANK_ONE_MIN_VERTICES, lambda: 1.0)
    edges = [(a + 1 if a else 0, b + 1 if b else 0, L) for a, b, L in core.edges]
    g = build_graph(core.vertex_count + 1, edges + [(0, 1, 1.0), (0, 1, 1e20)])
    assert_edge_data_is_exact(g)
