import random
import time

import pytest

from taulab.errors import (
    BadEdgeIndex,
    BadVertexIndex,
    DisconnectedGraph,
    NonPositiveLength,
)
from taulab.circuit import effective_resistance
from taulab.fuzzing import random_connected_multigraph
from taulab.graphs import MAX_LENGTH, MIN_LENGTH, MetrizedGraph, build_graph, component_labels
from taulab.identities import verify_all
from taulab.invariants import tau, tau_oracle_contraction, tau_oracle_integral


def test_build_rejects_bad_vertex():
    with pytest.raises(BadVertexIndex):
        build_graph(2, [(0, 2, 1.0)])
    with pytest.raises(BadVertexIndex):
        build_graph(0, [])


def test_build_rejects_bad_lengths():
    for length in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(NonPositiveLength):
            build_graph(2, [(0, 1, length)])


def test_lengths_must_keep_conductance_products_normal():
    # Beyond the bounds products of two conductances leave the normal
    # floats: a 1e200 triangle divided by zero in the circuit layer, and at
    # 1e160 its resistance came out 0.6666691 L instead of 2/3 L.
    for length in (1e200, 1e-200, 1.01 * MAX_LENGTH, 0.99 * MIN_LENGTH):
        with pytest.raises(NonPositiveLength):
            build_graph(3, [(0, 1, length), (1, 2, length), (2, 0, length)])
    for length in (MIN_LENGTH, MAX_LENGTH):
        g = build_graph(3, [(0, 1, length), (1, 2, length), (2, 0, length)])
        assert effective_resistance(g, 0, 1) / length == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert tau(g) / length == pytest.approx(0.25, rel=1e-12)
    # Surgeries may shrink an accepted graph below MIN_LENGTH (halving in
    # DA_TAU, subdivision in the oracles); only input is bounded, so they run.
    g = build_graph(3, [(0, 1, MIN_LENGTH), (1, 2, MIN_LENGTH), (2, 0, MIN_LENGTH)])
    reports = verify_all(g)
    assert [r.identity for r in reports if r.applicable and not r.passed] == []
    assert tau_oracle_contraction(g) / MIN_LENGTH == pytest.approx(0.25, rel=1e-12)
    assert tau_oracle_integral(g, 64) / MIN_LENGTH == pytest.approx(0.25, rel=1e-3)


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraph):
        build_graph(2, [])  # isolated vertex
    with pytest.raises(DisconnectedGraph):
        build_graph(3, [(0, 1, 1.0), (1, 1, 1.0)])  # a loop spans nothing


def test_too_few_edges_rejected_before_per_vertex_work():
    start = time.perf_counter()
    with pytest.raises(DisconnectedGraph, match="graph on 100000000 vertices with 0 edges is not connected"):
        build_graph(10**8, [])
    assert time.perf_counter() - start < 1.0


def test_point_graph_is_allowed():
    g = build_graph(1, [])
    assert g.genus == 0
    assert g.total_length == 0.0
    assert g.is_bridgeless()


def test_counts_and_genus(triangle, k4):
    assert triangle.edge_count == 3
    assert triangle.genus == 1
    assert triangle.total_length == 3.0
    assert k4.genus == 3
    loopy = build_graph(1, [(0, 0, 2.5)])
    assert loopy.genus == 1
    assert loopy.total_length == 2.5


def test_valence_counts_loops_twice():
    g = build_graph(2, [(0, 1, 1.0), (0, 0, 1.0)])
    assert g.valence(0) == 3
    assert g.valence(1) == 1
    assert g.min_valence() == 1


def test_min_valence_matches_per_vertex_valence():
    rng = random.Random(8128)
    loops = 0
    for _ in range(200):
        g = random_connected_multigraph(rng, 8, 16)
        loops += any(a == b for a, b, _ in g.edges)
        assert g.min_valence() == min(g.valence(p) for p in range(g.vertex_count)), g
    assert loops >= 50


def test_bridges_and_bridgeless(triangle, path2):
    assert triangle.bridges() == frozenset()
    assert triangle.is_bridgeless()
    assert path2.bridges() == frozenset({0, 1})
    assert not path2.is_bridgeless()
    # a triangle with a pendant edge: only the pendant is a bridge
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)])
    assert g.bridges() == frozenset({3})
    # loops are never bridges
    g = build_graph(1, [(0, 0, 1.0)])
    assert g.bridges() == frozenset()


def test_scaled_and_normalize(triangle):
    doubled = triangle.scaled(2.0)
    assert doubled.total_length == 6.0
    assert doubled.vertex_count == triangle.vertex_count
    unit = triangle.normalize()
    assert unit.total_length == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(NonPositiveLength):
        triangle.scaled(0.0)
    with pytest.raises(NonPositiveLength):
        build_graph(1, []).normalize()


def test_check_edge_and_vertex(triangle):
    assert triangle.check_edge(2) == 2
    with pytest.raises(BadEdgeIndex):
        triangle.check_edge(3)
    with pytest.raises(BadEdgeIndex):
        triangle.check_edge(-1)
    with pytest.raises(BadVertexIndex):
        triangle.check_vertex(3)


def test_graphs_are_hashable_values(triangle):
    same = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    assert same == triangle
    assert hash(same) == hash(triangle)
    assert len({same, triangle}) == 1
    assert isinstance(triangle, MetrizedGraph)


def test_component_labels_skip_edge():
    edges = [(0, 1, 1.0), (1, 2, 1.0)]
    labels = component_labels(3, edges)
    assert len(set(labels)) == 1
    labels = component_labels(3, edges[:1] + edges[2:])
    assert labels[0] == labels[1]
    assert labels[2] != labels[0]
