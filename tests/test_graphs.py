import collections
import random
import sys
import time

import numpy as np
import pytest

from taulab import graphs
from taulab.errors import (
    BadEdgeIndex,
    BadVertexIndex,
    DisconnectedGraph,
    NonPositiveLength,
)
from taulab.circuit import effective_resistance
from taulab.fuzzing import named_corpus, random_connected_multigraph
from taulab.graphs import MAX_LENGTH, MIN_LENGTH, MetrizedGraph, build_graph, component_labels
from taulab.identities import verify_all
from taulab.invariants import contraction_lattice, lattice_refusal, tau, tau_oracle_contraction, tau_oracle_integral
from taulab.transforms import contract_edge, double_adjusted


def test_build_rejects_bad_vertex():
    with pytest.raises(BadVertexIndex):
        build_graph(2, [(0, 2, 1.0)])
    with pytest.raises(BadVertexIndex):
        build_graph(0, [])


TRIANGLE = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_graph(2, [("x", 1, 1.0)]), BadVertexIndex, "edge 0's first endpoint"),
    (lambda: build_graph(2, [(0, 1.9, 1.0)]), BadVertexIndex, "edge 0's second endpoint"),
    (lambda: build_graph(2.7, [(0, 1, 1.0)]), BadVertexIndex, "vertex_count"),
    (lambda: build_graph(2, [(0, 1, 1.0), (0, 1, "abc")]), NonPositiveLength, "edge 1 has length 'abc'"),
    (lambda: build_graph(2, [(0, 1, None)]), NonPositiveLength, "edge 0 has length None"),
    (lambda: build_graph(2, [None]), NonPositiveLength, "edge 0 must be a"),
    (lambda: TRIANGLE.check_vertex(1.5), BadVertexIndex, "vertex must be an integer"),
    (lambda: TRIANGLE.check_vertex("x"), BadVertexIndex, "vertex must be an integer"),
    (lambda: TRIANGLE.check_edge(None), BadEdgeIndex, "edge index must be an integer"),
    (lambda: TRIANGLE.check_edge(0.0), BadEdgeIndex, "edge index must be an integer"),
], ids=["str-endpoint", "float-endpoint", "float-count", "str-length", "none-length", "none-edge",
        "float-vertex", "str-vertex", "none-edge-index", "float-edge-index"])
def test_input_that_is_not_an_index_or_a_number_raises_a_typed_error(call, error, message):
    # Python and numpy integers pass operator.index; nothing else is an
    # index, and a length must convert with float().
    with pytest.raises(error, match=message):
        call()


def test_numpy_integers_are_indices():
    g = build_graph(np.int64(2), [(np.int32(0), np.int64(1), np.float64(1.5)), (1, 0, "2.5")])
    assert g == build_graph(2, [(0, 1, 1.5), (1, 0, 2.5)])
    assert type(g.vertex_count) is int and all(type(a) is int and type(b) is int for a, b, _ in g.edges)
    assert g.check_vertex(np.int64(1)) == 1 and g.check_edge(np.uint8(1)) == 1


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


def test_scaled_keeps_lengths_in_the_accepted_range():
    # Outside [MIN_LENGTH, MAX_LENGTH] the circuit solves break down: tau
    # divided by zero or came out NaN on these scalings of the triangle.
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
    for factor in (1e200, 1e-200, 1e300, 1e150):
        with pytest.raises(NonPositiveLength, match="outside"):
            g.scaled(factor)
    # normalize scales too: lengths spread over 1e200 cannot all keep the range.
    with pytest.raises(NonPositiveLength, match="outside"):
        build_graph(2, [(0, 1, 1e-100), (0, 1, 1e100)]).normalize()


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


def test_graph_hash_is_the_field_tuple_hash():
    # tau picks its second base from hash(g), so the value must not change.
    edges = [(0, 1, 1.5), (1, 2, 0.25), (2, 0, 3.0), (1, 1, 2.0)]
    g = build_graph(3, edges)
    assert hash(g) == hash((3, g.edges))
    same = MetrizedGraph(3, tuple((a, b, L) for a, b, L in edges))
    assert same is not g and same == g and hash(same) == hash(g)
    assert repr(same) == repr(g) == f"MetrizedGraph(vertex_count=3, edges={g.edges!r})"
    assert g != build_graph(3, edges[:3])


def bridges_by_definition(g):
    """The non-loop edges whose deletion leaves more than one component."""
    return frozenset(
        i for i, (a, b, _) in enumerate(g.edges)
        if a != b and max(component_labels(g.vertex_count, g.edges[:i] + g.edges[i + 1:])) > 0
    )


def test_bridge_pass_matches_the_definition_on_seeded_multigraphs():
    rng = random.Random(1974)
    kinds = collections.Counter()
    for k in range(1200):
        g = random_connected_multigraph(rng, 9, 16)
        edges = list(g.edges)
        if k % 4 == 0:  # the spanning tree alone: every edge a bridge
            edges = edges[:g.vertex_count - 1]
        elif k % 4 == 1:  # a pendant path hung off a random vertex
            n = g.vertex_count
            tail = rng.randint(1, 3)
            edges += [(rng.randrange(n) if j == 0 else n + j - 1, n + j, 1.0) for j in range(tail)]
        rng.shuffle(edges)
        n = 1 + max(max(a, b) for a, b, _ in edges)
        g = MetrizedGraph(n, tuple(edges))
        want = bridges_by_definition(g)
        assert g.bridges() == want, g
        kinds["loops"] += any(a == b for a, b, _ in edges)
        kinds["parallel"] += len({frozenset((a, b)) for a, b, _ in edges if a != b}) < sum(a != b for a, b, _ in edges)
        kinds["bridged"] += bool(want)
        kinds["bridgeless"] += not want
    assert min(kinds.values()) >= 100, kinds


def fresh_bridges(g):
    """The bridges of a graph equal to g, from its own depth-first pass."""
    return MetrizedGraph(g.vertex_count, g.edges).bridges()


def handed_down(g):
    """g's bridges, asserting that they come from g's memo, not from a pass of their own."""
    misses = graphs._bridge_ids.cache_info().misses
    found = g.bridges()
    assert graphs._bridge_ids.cache_info().misses == misses
    return found


def test_contractions_and_doublings_hand_down_the_bridges_a_fresh_pass_finds(report_graphs):
    checked = collections.Counter()
    for g in report_graphs + list(named_corpus().values()):
        nodes = [g]
        if lattice_refusal(g) is None:
            nodes += [graph for _, graph, _ in contraction_lattice(g)[1:]]
        for h in nodes:
            for i in range(h.edge_count):
                c = contract_edge(h, i)
                assert handed_down(c) == fresh_bridges(c)
                checked["contraction"] += 1
            assert handed_down(double_adjusted(h)) == frozenset()
            checked["lattice node"] += 1
    assert min(checked.values()) >= 500, checked


# The kind of graph each surgery builds, by the name of the function that
# builds it through MetrizedGraph._unchecked.
BUILDERS = {
    "contract_edge": "contraction", "delete_edge": "deletion", "identify_points": "gluing",
    "double_adjusted": "doubling", "subdivide": "subdivision",
}


def test_verify_all_runs_the_bridge_pass_only_where_nothing_is_handed_down(monkeypatch):
    built = collections.Counter()
    unchecked = MetrizedGraph._unchecked
    post_init = MetrizedGraph.__post_init__

    def tagged(cls, vertex_count, edges):
        frame = sys._getframe(1)
        while frame.f_code.co_name not in BUILDERS:
            frame = frame.f_back
        built[BUILDERS[frame.f_code.co_name]] += 1
        return unchecked(vertex_count, edges)

    def parsed(self):
        built["parsed"] += 1
        post_init(self)

    monkeypatch.setattr(MetrizedGraph, "_unchecked", classmethod(tagged))
    monkeypatch.setattr(MetrizedGraph, "__post_init__", parsed)
    misses = graphs._bridge_ids.cache_info().misses
    g = build_graph(5, [
        (0, 1, 1.0), (0, 1, 2.5), (1, 2, 0.7), (2, 3, 1.3), (3, 4, 0.4),
        (4, 0, 1.1), (1, 3, 3.0), (2, 2, 0.9), (2, 4, 5.0),
    ])
    assert g.is_bridgeless()
    verify_all(g)
    passes = graphs._bridge_ids.cache_info().misses - misses
    assert min(built[kind] for kind in ("contraction", "doubling", "deletion", "gluing")) > 0, built
    assert passes == built["parsed"] + built["deletion"] + built["gluing"], built


def test_component_labels_skip_edge():
    edges = [(0, 1, 1.0), (1, 2, 1.0)]
    labels = component_labels(3, edges)
    assert len(set(labels)) == 1
    labels = component_labels(3, edges[:1] + edges[2:])
    assert labels[0] == labels[1]
    assert labels[2] != labels[0]
