import hashlib
import math
import random

import pytest
from test_circuit import random_regular_graph

from taulab import cli, identities, invariants, transforms
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
    # A count is an integer: 1.5 and "2" are refused, not truncated or parsed.
    for count in (1.5, "2"):
        with pytest.raises(TooSmall, match="subdivision factor must be an integer"):
            transforms.subdivide(triangle, count)


def test_admissible_contractions_on_triangle(triangle):
    leaves = invariants.admissible_leaf_nodes(triangle)
    assert [sorted(key) for key, _ in leaves] == [[0], [1], [2]]


def test_admissible_contractions_skip_loops():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 2, 1.0), (2, 0, 1.0)])
    for key, _, _ in invariants.contraction_lattice(g):
        assert 2 not in key


def test_k4_has_thirty_admissible_pairs(k4, replay):
    # 6 first choices; after any contraction one pair doubles up, leaving
    # 5 distinct non-loop edges, so 6 * 5 = 30 ordered sequences over the
    # 15 pairs of edges.
    assert len(list(replay(k4, 2))) == 30
    leaves = invariants.admissible_leaf_nodes(k4)
    assert len(leaves) == 15
    assert all(graph.vertex_count == 2 for _, graph in leaves)


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


def test_cubic_transform_builds_and_solves_each_graph_once(monkeypatch):
    # Each step's graph and its tau carry into the next step, and the last
    # one is returned, so a caller's tau of the result hits its memo.
    edges = [(a, b, 1.0) for a in range(5) for b in range(a + 1, 5)]
    k5 = build_graph(5, edges).normalize()
    solved = []
    real = invariants.tau
    monkeypatch.setattr(invariants, "tau", lambda g: solved.append(g) or real(g))
    out, trace = transforms.cubic_transform_trace(k5, 1e-5)
    assert len(solved) == len(trace) + 1 == 6
    assert solved[0] is k5 and solved[-1] is out
    assert [step.tau_after for step in trace[:-1]] == [step.tau_before for step in trace[1:]]


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


def collapse_by_contractions(g):
    """The 2-cut collapse contracting one bridge at a time, as first written.

    The reference for the one-relabel collapse: after each contract_edge,
    the surviving original edges are found by position tracking, and the
    picked edge is stretched in a copy of the contracted edge list.
    """
    current = g
    while True:
        if current.vertex_count == 1:
            return current
        lam = edge_connectivity(current)
        if lam is INFINITE or lam >= 3:
            return current

        chosen = None
        bridge_ids = []
        for i, (a, b, _) in enumerate(current.edges):
            if a == b:
                continue
            removed = transforms.delete_edge(current, i)
            found = removed.bridges()
            if found:
                chosen = i
                bridge_ids = sorted(j if j < i else j + 1 for j in found)
                break
        if chosen is None:
            return current

        added = math.fsum(current.edges[j][2] for j in bridge_ids)
        work = current
        alive = list(range(work.edge_count))
        for original in bridge_ids:
            pos = alive.index(original)
            work = transforms.contract_edge(work, pos)
            alive.pop(pos)
        target = alive.index(chosen)
        stretched = list(work.edges)
        a, b, length = stretched[target]
        stretched[target] = (a, b, length + added)
        current = MetrizedGraph(work.vertex_count, tuple(stretched))


def test_reduce2_relabels_where_contracting_each_bridge_would_land(monkeypatch):
    rng = random.Random(88)
    inputs = []
    while len(inputs) < 300:
        g = random_bridgeless_multigraph(rng, 8, 16)
        if edge_connectivity(g) == 2:
            inputs.append(g)
    assert sum(any(a == b for a, b, _ in g.edges) for g in inputs) >= 30
    parallel = 0
    for g in inputs:
        pairs = [frozenset((a, b)) for a, b, _ in g.edges if a != b]
        parallel += len(set(pairs)) < len(pairs)
    assert parallel >= 30
    expected = [collapse_by_contractions(g) for g in inputs]

    def refuse(*args):
        raise AssertionError("the collapse must not contract bridges one at a time")

    monkeypatch.setattr(transforms, "contract_edge", refuse)
    for g, want in zip(inputs, expected):
        out = transforms.reduce_edge_connectivity_two(g)
        assert (out.vertex_count, out.edges) == (want.vertex_count, want.edges)


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



# sha256 of the reductions' output bytes, in the order that
# test_reduction_bytes_are_pinned feeds them: serialize_graph of each cubic
# transform plus repr of its trace, serialize_graph of each 2-cut collapse,
# then the exit code and stdout of every `taulab transform` op on each small
# graph.  The 6-regular graph's steps take the closed-form route through
# LAPACK, so these bytes hold for one numpy/BLAS build.
PINNED_REDUCTIONS_SHA256 = "d2255160d826b6577577be5a106e0b0d5eca886e31bdb3151c652a7cd30aa312"


def test_reduction_bytes_are_pinned(tmp_path, capsys):
    rng = random.Random(2424)
    cubic_inputs = []
    while len(cubic_inputs) < 40:
        g = random_bridgeless_multigraph(rng, 6, 12)
        if g.min_valence() >= 3 and not transforms.has_cut_vertex(g):
            cubic_inputs.append(g.normalize())
    assert any(max(g.valence(p) for p in range(g.vertex_count)) == 3 for g in cubic_inputs)
    k5 = build_graph(5, [(a, b, 1.0) for a in range(5) for b in range(a + 1, 5)]).normalize()
    draw = random.Random(1212)
    regular = random_regular_graph(draw, 12, lambda: 10.0 ** draw.uniform(-1.0, 1.0))
    cubic_inputs += [k5, regular.normalize()]
    lam2_inputs = []
    while len(lam2_inputs) < 60:
        g = random_bridgeless_multigraph(rng, 6, 12)
        if edge_connectivity(g) == 2:
            lam2_inputs.append(g)
    c4 = build_graph(4, [(i, (i + 1) % 4, 1.0) for i in range(4)])
    lam2_inputs.append(c4)

    digest = hashlib.sha256()
    for g in cubic_inputs:
        out, trace = transforms.cubic_transform_trace(g, 1e-4)
        digest.update((cli.serialize_graph(out) + repr(trace) + "\n").encode())
    for g in lam2_inputs:
        digest.update(cli.serialize_graph(transforms.reduce_edge_connectivity_two(g)).encode())
    triangle = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    accepted = 0
    for g in (k5, c4, triangle):
        path = tmp_path / "g.graph"
        path.write_text(cli.serialize_graph(g))
        for op in ("contract", "delete", "identify", "da", "cubic", "reduce2"):
            code = cli.main(["transform", str(path), "--op", op, "--edge", "0"])
            out = capsys.readouterr().out
            accepted += code == 0
            digest.update(f"{op} {code}\n{out}".encode())
    assert accepted == 15  # cubic takes K5 alone; reduce2 takes C4 and the triangle
    assert digest.hexdigest() == PINNED_REDUCTIONS_SHA256
