import random

import numpy as np
import pytest

from taulab import circuit
from taulab.circuit import (
    INFINITE,
    all_edge_circuit_data,
    effective_resistance,
    is_infinite,
    resistance_matrix,
    voltage_j,
)
from taulab.fuzzing import random_connected_multigraph
from taulab.graphs import build_graph
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


def test_resistance_matrix_agrees_pointwise(k4):
    mat = resistance_matrix(k4)
    for x in range(4):
        for y in range(4):
            assert mat[x, y] == pytest.approx(effective_resistance(k4, x, y), abs=1e-12)


def test_voltage_reference_properties(triangle):
    # j_z(x, y) vanishes at the reference and recovers the resistance at x = y.
    assert voltage_j(triangle, 2, 2, 0) == pytest.approx(0.0, abs=1e-12)
    assert voltage_j(triangle, 2, 0, 0) == pytest.approx(
        effective_resistance(triangle, 0, 2), rel=1e-12
    )
    # symmetric in the two observation points
    assert voltage_j(triangle, 2, 0, 1) == pytest.approx(
        voltage_j(triangle, 2, 1, 0), rel=1e-12
    )


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


def test_batched_inverses_match_one_batch(monkeypatch):
    # Edges 6 and 8 are loops, 7 is a bridge, 0-1 and 2-3 are parallel pairs.
    g = build_graph(5, [
        (0, 1, 1.0), (0, 1, 2.5), (1, 2, 0.7), (1, 2, 3.0), (2, 0, 1.3),
        (2, 3, 0.4), (3, 3, 2.0), (3, 4, 1.1), (2, 2, 0.9), (0, 3, 5.0),
    ])
    circuit._deleted_edge_inverses.cache_clear()
    whole = [all_edge_circuit_data(g, p) for p in range(g.vertex_count)]
    solved = sum(r is not None for r in circuit._deleted_edge_inverses(g)[0])
    # Three matrices per batch: the solved edges span several batches,
    # the last one partly filled.
    monkeypatch.setattr(circuit, "_BATCH_ENTRIES", 3 * g.vertex_count ** 2)
    assert solved > 6 and solved % 3 != 0
    circuit._deleted_edge_inverses.cache_clear()
    split = [all_edge_circuit_data(g, p) for p in range(g.vertex_count)]
    circuit._deleted_edge_inverses.cache_clear()
    assert split == whole


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
