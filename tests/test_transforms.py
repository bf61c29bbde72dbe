import random

import pytest

from taulab import identities, invariants, transforms
from taulab.cuts import INFINITE, edge_connectivity
from taulab.errors import (
    HasCutVertex,
    NonPositiveLength,
    NotApplicable,
    NotNormalized,
    SameVertex,
    TauLabError,
    TooSmall,
    ValenceBelowThree,
    WouldDisconnect,
)
from taulab.fuzzing import random_bridgeless_multigraph, random_connected_multigraph
from taulab.graphs import MetrizedGraph, build_graph


def test_delete_edge(triangle):
    g = transforms.delete_edge(triangle, 0)
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.total_length == 2.0


def test_delete_refuses_bridges(path2):
    with pytest.raises(WouldDisconnect):
        transforms.delete_edge(path2, 0)


def test_contract_edge_merges_endpoints(triangle):
    g = transforms.contract_edge(triangle, 0)
    assert g.vertex_count == 2
    assert g.edge_count == 2
    assert all(a != b for a, b, _ in g.edges)  # result is a banana, no loops


def test_contract_loop_just_removes_it():
    g = build_graph(2, [(0, 1, 1.0), (1, 1, 2.0)])
    out = transforms.contract_edge(g, 1)
    assert out.vertex_count == 2
    assert out.edges == ((0, 1, 1.0),)


def test_contract_parallel_edge_makes_loop():
    banana = build_graph(2, [(0, 1, 1.0), (0, 1, 2.0)])
    out = transforms.contract_edge(banana, 0)
    assert out.vertex_count == 1
    assert out.edges == ((0, 0, 2.0),)


def test_surgery_maps(triangle):
    # edge 1 goes; vertex 2 merges into vertex 1, indices above close up,
    # and the other edges keep their order
    assert transforms.contract_edge(triangle, 1).edges == ((0, 1, 1.0), (1, 0, 1.0))


def test_identify_endpoints_keeps_edge_as_loop(triangle):
    g = transforms.identify_endpoints(triangle, 0)
    assert g.vertex_count == 2
    assert g.edge_count == 3
    assert sum(1 for a, b, _ in g.edges if a == b) == 1
    assert g.total_length == triangle.total_length


def test_identify_endpoints_of_loop_is_identity():
    g = build_graph(1, [(0, 0, 1.0)])
    assert transforms.identify_endpoints(g, 0) == g


def test_identify_points(path2):
    circle = transforms.identify_points(path2, 0, 2)
    assert circle.vertex_count == 2
    assert circle.is_bridgeless()
    with pytest.raises(SameVertex):
        transforms.identify_points(path2, 1, 1)


def test_double_adjusted(triangle):
    g = transforms.double_adjusted(triangle)
    assert g.edge_count == 6
    assert g.total_length == pytest.approx(triangle.total_length, rel=1e-15)
    assert g.edges[0][2] == 0.5
    # every resistance drops by a factor of 4
    from taulab.circuit import effective_resistance
    assert effective_resistance(g, 0, 1) == pytest.approx(
        effective_resistance(triangle, 0, 1) / 4.0, rel=1e-12
    )


def test_subdivide(triangle):
    g = transforms.subdivide(triangle, 3)
    assert g.vertex_count == 3 + 3 * 2
    assert g.edge_count == 9
    assert g.total_length == pytest.approx(3.0, rel=1e-15)
    assert transforms.subdivide(triangle, 1) == triangle
    with pytest.raises(TooSmall):
        transforms.subdivide(triangle, 0)


def test_admissible_contractions_on_triangle(triangle):
    leaves = invariants.admissible_leaf_nodes(triangle)
    assert [sorted(key) for key, _ in leaves] == [[0], [1], [2]]


def test_admissible_contractions_skip_loops():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 2, 1.0), (2, 0, 1.0)])
    for key in invariants.contraction_lattice(g):
        assert 2 not in key


def test_k4_has_thirty_admissible_pairs(k4, replay):
    # 6 first choices; after any contraction one pair doubles up, leaving
    # 5 distinct non-loop edges, so 6 * 5 = 30 ordered sequences over the
    # 15 pairs of edges.
    assert len(list(replay(k4, 2))) == 30
    leaves = invariants.admissible_leaf_nodes(k4)
    assert len(leaves) == 15
    assert all(node.graph.vertex_count == 2 for _, node in leaves)


def test_cut_vertices_on_bowtie():
    bowtie = build_graph(5, [
        (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
        (2, 3, 1.0), (3, 4, 1.0), (4, 2, 1.0),
    ])
    assert transforms.cut_vertices(bowtie) == frozenset({2})
    assert transforms.has_cut_vertex(bowtie)


def test_loop_base_point_is_a_cut_vertex():
    g = build_graph(2, [(0, 1, 1.0), (0, 1, 1.0), (1, 1, 1.0)])
    assert 1 in transforms.cut_vertices(g)


def test_no_cut_vertices_in_k4(k4):
    assert transforms.cut_vertices(k4) == frozenset()


def test_cubic_transform_rejects_bad_input(triangle, k4):
    with pytest.raises(NotNormalized):
        transforms.cubic_transform(k4, 1e-3)
    with pytest.raises(ValenceBelowThree):
        transforms.cubic_transform(triangle.normalize(), 1e-3)
    with pytest.raises(NonPositiveLength):
        transforms.cubic_transform(k4.normalize(), 0.0)
    bowtie = build_graph(5, [
        (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 1, 1.0),
        (2, 3, 1.0), (3, 4, 1.0), (4, 2, 1.0), (3, 4, 1.0),
    ])
    assert bowtie.min_valence() == 3
    with pytest.raises(HasCutVertex):
        transforms.cubic_transform(bowtie.normalize(), 1e-3)


def test_cubic_transform_is_identity_on_cubic(k4):
    unit = k4.normalize()
    out, trace = transforms.cubic_transform_trace(unit, 1e-3)
    assert out == unit
    assert trace == ()


def test_cubic_transform_splits_high_valence():
    # K5 has valence 4 everywhere: one splitting step per vertex
    edges = [(a, b, 1.0) for a in range(5) for b in range(a + 1, 5)]
    k5 = build_graph(5, edges).normalize()
    out, trace = transforms.cubic_transform_trace(k5, 1e-5)
    assert all(out.valence(p) == 3 for p in range(out.vertex_count))
    assert len(trace) == 2 * k5.edge_count - 3 * k5.vertex_count
    assert abs(out.total_length - 1.0) <= 1e-12
    increase = invariants.tau(out) - invariants.tau(k5)
    assert increase <= 1e-5 + 1e-9


def test_reduce2_collapses_c4_to_loop():
    c4 = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    out = transforms.reduce_edge_connectivity_two(c4)
    assert out.vertex_count == 1
    assert out.edges == ((0, 0, 4.0),)
    assert invariants.tau(out) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert invariants.tau(out) == pytest.approx(invariants.tau(c4), rel=1e-12)


def test_reduce2_requires_connectivity_exactly_two(k4, path2):
    with pytest.raises(NotApplicable):
        transforms.reduce_edge_connectivity_two(k4)  # connectivity 3
    with pytest.raises(NotApplicable):
        transforms.reduce_edge_connectivity_two(path2)  # has bridges


def test_reduce2_preserves_invariants():
    rng = random.Random(31)
    found = 0
    while found < 8:
        g = random_bridgeless_multigraph(rng, 6, 12)
        if edge_connectivity(g) != 2:
            continue
        found += 1
        out = transforms.reduce_edge_connectivity_two(g)
        lam = edge_connectivity(out)
        assert lam is INFINITE or lam >= 3
        assert out.total_length == pytest.approx(g.total_length, rel=1e-12)
        assert out.genus == g.genus
        assert invariants.tau(out) == pytest.approx(invariants.tau(g), rel=1e-9)


def test_surgeries_preserve_validity():
    rng = random.Random(13)
    for _ in range(25):
        g = random_connected_multigraph(rng, 6, 10)
        i = rng.randrange(g.edge_count)
        transforms.contract_edge(g, i)  # construction re-validates
        transforms.identify_endpoints(g, i)
        if i not in g.bridges():
            transforms.delete_edge(g, i)


def test_surgeries_refuse_lengths_that_shrink_to_zero():
    # build_graph bounds lengths below by MIN_LENGTH, but a graph built
    # directly needs only positive ones.  Halving or dividing the smallest
    # subnormal gives 0.0, which must end in a typed error.
    g = MetrizedGraph(3, ((0, 1, 5e-324), (0, 1, 1.0), (1, 2, 1.0), (2, 0, 2.0), (1, 1, 5e-324)))
    for surgery in (transforms.double_adjusted, lambda h: transforms.subdivide(h, 3)):
        with pytest.raises(NonPositiveLength):
            surgery(g)
    with pytest.raises(TauLabError):
        identities.verify(g, "DA_TAU")
    # Deletion, contraction and gluing keep every length: valid, unchecked.
    merged = ((0, 0, 1.0), (0, 1, 1.0), (1, 0, 2.0), (0, 0, 5e-324))
    assert transforms.contract_edge(g, 0) == MetrizedGraph(2, merged)
    assert transforms.delete_edge(g, 1).edges == g.edges[:1] + g.edges[2:]

