"""Acceptance gate: nine scripted criteria, one test (and one -v line) each.

Each criterion carries a wall-clock budget; the asserts are generous next to
the measured runtimes, so a miss means a real performance regression, not
machine jitter.  Later criteria reuse the graphs generated by earlier ones
(collected in _SEEN) so the final conjecture scan covers the whole corpus.
"""

import math
import random
import time

import pytest

from taulab import connectivity, identities, invariants, transforms
from taulab.cuts import edge_connectivity, is_infinite, vertex_connectivity
from taulab.fuzzing import (
    _random_tree_edges,
    named_corpus,
    random_bridgeless_multigraph,
    random_connected_multigraph,
    random_length,
)
from taulab.graphs import build_graph

_SEEN = []


def _watch(budget_seconds):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < budget_seconds, f"budget {budget_seconds}s exceeded: {elapsed:.1f}s"
        return elapsed

    return check


def _remember(graphs):
    _SEEN.extend(graphs)
    return graphs


def test_01_closed_forms_for_trees_and_circles():
    done = _watch(1.0)
    rng = random.Random(101)
    for _ in range(20):
        v = rng.randint(2, 9)
        edges = [(a, b, random_length(rng)) for a, b in _random_tree_edges(rng, v)]
        tree = build_graph(v, edges).normalize().scaled(10 ** rng.uniform(-1, 1))
        assert invariants.tau(tree) == pytest.approx(tree.total_length / 4.0, rel=1e-12)
    for _ in range(20):
        v = rng.randint(1, 9)
        if v == 1:
            edges = [(0, 0, random_length(rng))]
        else:
            edges = [(i, (i + 1) % v, random_length(rng)) for i in range(v)]
        circle = build_graph(v, edges).normalize().scaled(10 ** rng.uniform(-1, 1))
        assert invariants.tau(circle) == pytest.approx(circle.total_length / 12.0, rel=1e-12)
    elapsed = done()
    print(f"criterion 1 PASS: 20 trees at length/4, 20 circles at length/12 ({elapsed:.2f}s)")


def test_02_worked_examples():
    done = _watch(1.0)
    triangle = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    inv = invariants.invariant_set(triangle)
    assert inv.tau == pytest.approx(1.0 / 4.0, rel=1e-12)
    assert inv.x == pytest.approx(1.0, rel=1e-12)
    assert inv.y == pytest.approx(1.0, rel=1e-12)
    assert inv.z == pytest.approx(1.0, rel=1e-12)
    assert inv.r == pytest.approx(2.0, rel=1e-12)
    assert inv.w == pytest.approx(1.0, rel=1e-12)
    banana3 = build_graph(2, [(0, 1, 1.0)] * 3)
    inv = invariants.invariant_set(banana3)
    assert inv.tau == pytest.approx(7.0 / 36.0, rel=1e-12)
    assert inv.x == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert inv.y == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert inv.z == pytest.approx(2.0, rel=1e-12)
    assert invariants.tau(banana3.normalize()) == pytest.approx(7.0 / 108.0, rel=1e-12)
    elapsed = done()
    print(f"criterion 2 PASS: triangle, banana-3, normalized banana-3 ({elapsed:.2f}s)")


def test_03_identity_suite():
    done = _watch(60.0)
    rng = random.Random(303)
    graphs = list(named_corpus().values())
    graphs += [g.normalize() for g in graphs]
    graphs += _remember([random_bridgeless_multigraph(rng, 6, 12) for _ in range(200)])
    checked = 0
    for g in graphs:
        for report in identities.verify_all(g, tol=1e-9):
            if not report.applicable:
                continue
            checked += 1
            assert report.passed, (g, report.identity, report.residual, report.slack)
            if report.residual is not None:
                assert report.residual <= 1e-9
            assert report.slack >= -1e-9
    elapsed = done()
    print(f"criterion 3 PASS: {checked} identity checks over corpus + 200 fuzzed ({elapsed:.1f}s)")


def test_04_cross_oracle_agreement():
    done = _watch(120.0)
    rng = random.Random(404)
    graphs = _remember([random_connected_multigraph(rng, 6, 12) for _ in range(100)])
    worst32 = worst64 = 0.0
    for g in graphs:
        direct = invariants.tau(g)
        scale = max(1.0, abs(direct))
        assert abs(invariants.tau_oracle_contraction(g) - direct) / scale <= 1e-9
        err64 = abs(invariants.tau_oracle_integral(g, 64) - direct) / scale
        assert err64 <= 1e-3
        worst64 = max(worst64, err64)
        worst32 = max(worst32, abs(invariants.tau_oracle_integral(g, 32) - direct) / scale)
    # quadrature error is O(h^2): doubling the segment count should cut the
    # worst error by about 4, and certainly by 3 (unless the whole corpus
    # happened to be exactly integrable, where there is nothing to shrink)
    if worst64 > 1e-14:
        assert worst32 / worst64 >= 3.0, (worst32, worst64)
    elapsed = done()
    print(f"criterion 4 PASS: 100 graphs, both oracles, error ratio "
          f"{worst32 / max(worst64, 1e-300):.2f} ({elapsed:.1f}s)")


def _wedge(a, b, at):
    """One-point union: vertex 0 of b lands on vertex `at` of a."""
    offset = a.vertex_count

    def moved(p):
        return at if p == 0 else offset + p - 1

    edges = list(a.edges) + [(moved(p), moved(q), L) for p, q, L in b.edges]
    return build_graph(a.vertex_count + b.vertex_count - 1, edges)


def test_05_invariances():
    done = _watch(30.0)
    rng = random.Random(505)
    graphs = _remember([random_connected_multigraph(rng, 6, 12) for _ in range(100)])
    for g in graphs:
        reference = invariants.tau(g)
        # base point
        for base in range(g.vertex_count):
            assert invariants.graph_profile(g, base).tau == pytest.approx(reference, rel=1e-9)
        # scale
        factor = 10 ** rng.uniform(-1, 1)
        assert invariants.tau(g.scaled(factor)) == pytest.approx(factor * reference, rel=1e-9)
        # subdivision
        assert invariants.tau(transforms.subdivide(g, rng.randint(2, 3))) == pytest.approx(
            reference, rel=1e-9
        )
        # additivity over a one-point union
        other = random_connected_multigraph(rng, 4, 6)
        joined = _wedge(g, other, rng.randrange(g.vertex_count))
        assert invariants.tau(joined) == pytest.approx(
            reference + invariants.tau(other), rel=1e-9
        )
    elapsed = done()
    print(f"criterion 5 PASS: base, scale, subdivision, additivity on 100 graphs ({elapsed:.1f}s)")


def test_06_minimum_leaf_width_is_edge_connectivity():
    done = _watch(60.0)
    rng = random.Random(606)
    bridgeless = _remember([random_bridgeless_multigraph(rng, 6, 12) for _ in range(150)])
    for g in bridgeless:
        assert connectivity.N_of(g) == edge_connectivity(g), g
    mixed = _remember([random_connected_multigraph(rng, 6, 12) for _ in range(150)])
    for g in bridgeless + mixed:
        if g.vertex_count < 2:
            continue
        lam = edge_connectivity(g)
        assert not is_infinite(lam)
        assert vertex_connectivity(g) <= lam <= g.min_valence(), g
    elapsed = done()
    print(f"criterion 6 PASS: leaf width = edge connectivity on 150 graphs, "
          f"sandwich on 300 ({elapsed:.1f}s)")


def test_07_lower_bound_slacks():
    done = _watch(10.0)
    graphs = list(named_corpus().values())
    graphs += [g.normalize() for g in graphs]
    rng = random.Random(707)
    graphs += _remember([random_connected_multigraph(rng, 6, 12) for _ in range(50)])
    for g in graphs:
        for entry in connectivity.lower_bounds(g).bounds:
            assert entry.slack >= -1e-9, (g, entry.name, entry.slack)
    banana6 = build_graph(2, [(0, 1, 1.0)] * 6).normalize()
    report = connectivity.lower_bounds(banana6)
    by_name = {e.name: e for e in report.bounds}
    assert invariants.tau(banana6) == pytest.approx(7.0 / 108.0, rel=1e-12)
    assert by_name["length over 108"].slack == pytest.approx(1.0 / 18.0, rel=1e-12)
    k4 = build_graph(4, [(a, b, 1.0) for a in range(4) for b in range(a + 1, 4)]).normalize()
    tau_k4 = invariants.tau(k4)
    assert 5.0 / 96.0 - 1e-12 <= tau_k4 <= 1.0 / 18.0 + 1e-12
    window = {e.name: e for e in connectivity.lower_bounds(k4).bounds}
    assert window["equal-length lower"].bound == pytest.approx(5.0 / 96.0, rel=1e-12)
    assert window["equal-length upper"].bound == pytest.approx(1.0 / 18.0, rel=1e-12)
    elapsed = done()
    print(f"criterion 7 PASS: slacks hold; banana-6 slack 1/18; K4 in its window ({elapsed:.1f}s)")


def test_08_valence_and_connectivity_reductions():
    done = _watch(30.0)
    rng = random.Random(808)
    cubic_inputs = []
    while len(cubic_inputs) < 20:
        g = random_bridgeless_multigraph(rng, 6, 12)
        if g.min_valence() < 3:
            continue
        if max(g.valence(p) for p in range(g.vertex_count)) == 3:
            continue
        if transforms.has_cut_vertex(g):
            continue
        cubic_inputs.append(g.normalize())
    for g in cubic_inputs:
        out = transforms.cubic_transform(g, 1e-4)
        assert all(out.valence(p) == 3 for p in range(out.vertex_count))
        assert invariants.tau(out) - invariants.tau(g) <= 1e-4 + 1e-9
    lam2_inputs = []
    while len(lam2_inputs) < 20:
        g = random_bridgeless_multigraph(rng, 6, 12)
        if edge_connectivity(g) == 2:
            lam2_inputs.append(g)
    for g in lam2_inputs:
        out = transforms.reduce_edge_connectivity_two(g)
        assert invariants.tau(out) == pytest.approx(invariants.tau(g), rel=1e-9)
        assert out.total_length == pytest.approx(g.total_length, rel=1e-9)
        assert out.genus == g.genus
    c4 = build_graph(4, [(i, (i + 1) % 4, 1.0) for i in range(4)])
    loop = transforms.reduce_edge_connectivity_two(c4)
    assert loop.edges == ((0, 0, 4.0),)
    assert invariants.tau(c4) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert invariants.tau(loop) == pytest.approx(1.0 / 3.0, rel=1e-12)
    _remember(cubic_inputs + lam2_inputs)
    elapsed = done()
    print(f"criterion 8 PASS: 20 cubic reductions, 20 connectivity collapses, C4 loop ({elapsed:.1f}s)")


def test_09_conjecture_scan():
    done = _watch(60.0)
    rng = random.Random(909)
    corpus = list(named_corpus().values())
    corpus += [g.normalize() for g in corpus]
    corpus += _SEEN
    corpus += [random_connected_multigraph(rng, 6, 12) for _ in range(100)]
    floor = 1.0 / 108.0
    worst = math.inf
    worst_graph = None
    for g in corpus:
        margin = connectivity.conjecture_margin(g)
        if margin < worst:
            worst, worst_graph = margin, g
    # A violation here would be a mathematical finding, not a code bug; the
    # assert message dumps the graph so it cannot get lost.
    assert worst > 0.0, f"tau/length <= 1/108 (margin {worst!r}) on {worst_graph!r}"
    elapsed = done()
    print(f"criterion 9 PASS: min tau/length = {floor + worst:.6f} > 1/108 over "
          f"{len(corpus)} graphs ({elapsed:.1f}s)")
