import itertools
import math
import random
import time

import pytest

from taulab import invariants, transforms
from taulab.connectivity import N_of
from taulab.errors import BridgePresent, SameVertex, TooLarge, TooSmall, WouldDisconnect
from taulab.fuzzing import named_corpus, random_bridgeless_multigraph, random_connected_multigraph
from taulab.graphs import build_graph
from taulab.invariants import (
    A_pq,
    K_contraction_form,
    K_definition,
    K_of,
    a_pq_oracle_integral,
    admissible_leaf_nodes,
    banana_stats,
    graph_profile,
    invariant_set,
    nested_weighted_sum,
    tau,
    tau_oracle_contraction,
    tau_oracle_integral,
    w_nested,
    w_of,
    z_of,
)


# -- frozen values, all checked by hand ---------------------------------------


def test_unit_triangle_values(triangle):
    inv = invariant_set(triangle)
    assert inv.ell == pytest.approx(3.0, rel=1e-12)
    assert inv.tau == pytest.approx(1.0 / 4.0, rel=1e-12)
    assert inv.x == pytest.approx(1.0, rel=1e-12)
    assert inv.y == pytest.approx(1.0, rel=1e-12)
    assert inv.z == pytest.approx(1.0, rel=1e-12)
    assert inv.r == pytest.approx(2.0, rel=1e-12)
    assert inv.w == pytest.approx(1.0, rel=1e-12)


def test_unit_banana3_values(banana3):
    inv = invariant_set(banana3)
    assert inv.tau == pytest.approx(7.0 / 36.0, rel=1e-12)
    assert inv.x == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert inv.y == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert inv.z == pytest.approx(2.0, rel=1e-12)
    assert inv.r == pytest.approx(1.0, rel=1e-12)
    assert inv.w == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert tau(banana3.normalize()) == pytest.approx(7.0 / 108.0, rel=1e-12)


def test_unit_k4_values(k4):
    inv = invariant_set(k4)
    assert inv.tau == pytest.approx(5.0 / 16.0, rel=1e-12)
    assert inv.x == pytest.approx(33.0 / 16.0, rel=1e-12)
    assert inv.y == pytest.approx(15.0 / 16.0, rel=1e-12)
    assert tau(k4.normalize()) == pytest.approx(5.0 / 96.0, rel=1e-12)


def test_trees_have_quarter_length():
    assert tau(build_graph(2, [(0, 1, 1.0)])) == pytest.approx(0.25, rel=1e-12)
    path = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert tau(path) == pytest.approx(0.5, rel=1e-12)
    star = build_graph(4, [(0, 1, 0.3), (0, 2, 1.7), (0, 3, 2.0)])
    assert tau(star) == pytest.approx(1.0, rel=1e-12)


def test_circles_have_twelfth_length():
    loop = build_graph(1, [(0, 0, 5.0)])
    assert tau(loop) == pytest.approx(5.0 / 12.0, rel=1e-12)
    for split in ([2.0, 3.0], [1.0, 1.0, 3.0], [0.1, 0.2, 0.3, 4.4]):
        v = len(split)
        edges = [(i, (i + 1) % v, L) for i, L in enumerate(split)]
        g = build_graph(v, edges)
        assert tau(g) == pytest.approx(sum(split) / 12.0, rel=1e-12)


def test_length_decomposition_and_weights():
    # ell = x + y + z and r = x + y, with the weight sums counting
    # independent cycles and spanning-tree edges respectively
    rng = random.Random(404)
    for _ in range(25):
        g = random_connected_multigraph(rng, 6, 12)
        prof = graph_profile(g)
        assert prof.x + prof.y + prof.z == pytest.approx(prof.ell, rel=1e-9)
        assert prof.r == pytest.approx(prof.x + prof.y, rel=1e-9)
        assert math.fsum(prof.weight_length) == pytest.approx(g.genus, rel=1e-9, abs=1e-12)
        assert math.fsum(prof.weight_resistance) == pytest.approx(g.vertex_count - 1, rel=1e-9)
        assert prof.tau == pytest.approx(prof.ell / 12.0 - prof.x / 6.0 + prof.y / 6.0, rel=1e-9)


def test_invariants_are_base_independent():
    rng = random.Random(11)
    for _ in range(15):
        g = random_connected_multigraph(rng, 6, 10)
        p0 = graph_profile(g, 0)
        for base in range(1, g.vertex_count):
            pb = graph_profile(g, base)
            assert pb.x == pytest.approx(p0.x, rel=1e-9, abs=1e-12)
            assert pb.y == pytest.approx(p0.y, rel=1e-9, abs=1e-12)


def test_invariants_scale_linearly(k4):
    factor = 2.75
    big = k4.scaled(factor)
    small, large = invariant_set(k4), invariant_set(big)
    for name in ("ell", "tau", "x", "y", "z", "r", "w"):
        assert getattr(large, name) == pytest.approx(factor * getattr(small, name), rel=1e-12)


def test_tau_survives_subdivision():
    rng = random.Random(21)
    for _ in range(10):
        g = random_connected_multigraph(rng, 5, 8)
        fine = transforms.subdivide(g, 3)
        assert tau(fine) == pytest.approx(tau(g), rel=1e-9)
        assert z_of(fine) != pytest.approx(z_of(g), rel=1e-3) or g.genus == 0


def test_point_graph_tau_is_zero():
    assert tau(build_graph(1, [])) == 0.0


# -- K and A -------------------------------------------------------------------


def test_triangle_deletion_defect(triangle):
    for i in range(3):
        assert K_of(triangle, i) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_deletion_defect_two_forms_agree():
    rng = random.Random(59)
    checked = 0
    while checked < 10:
        g = random_bridgeless_multigraph(rng, 6, 10)
        for i in range(g.edge_count):
            assert K_definition(g, i) == pytest.approx(
                K_contraction_form(g, i), rel=1e-9, abs=1e-9
            )
            assert K_of(g, i) >= -1e-9
        checked += 1


def test_deletion_defect_rejects_bridges(path2):
    with pytest.raises(BridgePresent):
        K_of(path2, 0)
    # the raw definition still works when the deleted edge is not a bridge
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 0, 1.0)])
    assert K_definition(g, 3) == pytest.approx(K_contraction_form(g, 3), rel=1e-9)


def test_both_deletion_defect_forms_refuse_a_bridge_before_any_arithmetic(monkeypatch):
    # a triangle with a pendant edge 3
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.5)])

    def must_not_run(*args):
        raise AssertionError("computed with a bridge")

    monkeypatch.setattr(invariants, "graph_profile", must_not_run)
    monkeypatch.setattr(transforms, "contract_edge", must_not_run)
    for form in (K_definition, K_contraction_form):
        with pytest.raises(WouldDisconnect, match="edge 3"):
            form(g, 3)


def test_loop_deletion_defect_is_zero():
    g = build_graph(2, [(0, 1, 1.0), (0, 1, 1.0), (1, 1, 2.0)])
    assert K_of(g, 2) == 0.0


def test_crossing_value_on_paths(path2):
    # gluing the ends of a segment makes a circle: A comes out exactly 0
    assert A_pq(path2, 0, 2) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(SameVertex):
        A_pq(path2, 1, 1)


def test_crossing_value_matches_quadrature(triangle, k4):
    for g, p, q in ((triangle, 0, 1), (k4, 0, 3)):
        exact = A_pq(g, p, q)
        approx = a_pq_oracle_integral(g, p, q, 96)
        assert exact == pytest.approx(approx, abs=5e-4)
        assert exact >= -1e-12
    with pytest.raises(TooLarge):
        a_pq_oracle_integral(triangle, 0, 1, 10_000_000)


# -- banana closed forms and the contraction lattice ---------------------------


def test_banana_stats(banana3):
    count, harmonic = banana_stats(banana3)
    assert count == 3
    assert harmonic == pytest.approx(1.0 / 3.0, rel=1e-12)
    with_loop = build_graph(2, [(0, 1, 2.0), (0, 1, 2.0), (1, 1, 5.0)])
    count, harmonic = banana_stats(with_loop)
    assert count == 2
    assert harmonic == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(TooLarge):
        banana_stats(build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    with pytest.raises(TooSmall):
        banana_stats(build_graph(1, [(0, 0, 1.0)]))


def test_leaf_nodes_match_sequence_enumeration(triangle, k4, replay):
    # the lattice keys are exactly the sets underlying admissible sequences
    for g in (triangle, k4):
        from_sequences = {frozenset(ids) for ids, _, _ in replay(g, g.vertex_count - 2)}
        from_lattice = {key for key, _ in admissible_leaf_nodes(g)}
        assert from_lattice == from_sequences


def test_nested_sum_equals_explicit_sequence_sum(k4, replay):
    # One walk for every depth against a replay of every admissible
    # sequence, multiplying the R/(L+R) weight of each step in the graph
    # current at that step.
    def leaf_tau(node):
        return tau(node.graph)

    def leaf_xy_gap(node):
        prof = graph_profile(node.graph)
        return prof.x - prof.y

    for g in (k4, named_corpus()["prism"]):
        depths = range(1, g.vertex_count - 1)
        for leaf in (leaf_tau, leaf_xy_gap):
            fast = nested_weighted_sum(g, depths, leaf)
            slow = [
                math.fsum(weight * leaf(node) for _, weight, node in replay(g, depth))
                for depth in depths
            ]
            assert fast == pytest.approx(slow, rel=1e-9)


def test_nested_sum_depth_cap(triangle):
    for depths in ([2], [1, 2]):
        with pytest.raises(TooLarge):
            nested_weighted_sum(triangle, depths, lambda node: 0.0)


def test_contraction_weight(triangle, banana3):
    assert w_of(triangle) == pytest.approx(1.0, rel=1e-12)
    assert w_of(banana3) == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert w_nested(triangle) == pytest.approx(1.0, rel=1e-12)
    assert w_nested(banana3) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_contraction_weight_needs_bridgeless(path2):
    with pytest.raises(BridgePresent):
        w_of(path2)
    with pytest.raises(BridgePresent):
        w_nested(path2)


def test_nested_weight_matches_closed_form():
    rng = random.Random(303)
    for _ in range(8):
        g = random_bridgeless_multigraph(rng, 5, 9)
        assert w_nested(g) == pytest.approx(w_of(g), rel=1e-9, abs=1e-12)


# -- oracles -------------------------------------------------------------------


def test_integral_oracle_converges_quadratically(k4):
    exact = tau(k4)
    err32 = abs(tau_oracle_integral(k4, 32) - exact)
    err64 = abs(tau_oracle_integral(k4, 64) - exact)
    assert err64 < 1e-3
    assert err32 / err64 == pytest.approx(4.0, rel=0.2)


def test_integral_oracle_is_exact_on_trees(path2):
    # piecewise-constant slope: the midpoint rule has nothing to miss
    assert tau_oracle_integral(path2, 4) == pytest.approx(tau(path2), rel=1e-12)


def test_contraction_oracle_agrees():
    rng = random.Random(85)
    for _ in range(20):
        g = random_connected_multigraph(rng, 6, 10)
        assert tau_oracle_contraction(g) == pytest.approx(tau(g), rel=1e-9, abs=1e-12)


def test_contraction_oracle_size_cap():
    big = build_graph(8, [(i, (i + 1) % 8, 1.0) for i in range(8)])
    with pytest.raises(TooLarge):
        tau_oracle_contraction(big)


# -- the per-graph memo ----------------------------------------------------------


def test_profile_memo_counts_hits_per_graph_instance():
    edges = [(0, 1, 1.375), (1, 2, 0.625), (2, 0, 2.875), (1, 1, 0.3125)]
    g = build_graph(3, edges)
    start = graph_profile.cache_info()
    first = graph_profile(g)
    missed = graph_profile.cache_info()
    assert (missed.hits - start.hits, missed.misses - start.misses) == (0, 1)
    assert graph_profile(g) is first
    hit = graph_profile.cache_info()
    assert (hit.hits - missed.hits, hit.misses - missed.misses) == (1, 0)
    # An equal graph built again has its own, empty memo.
    same = build_graph(3, edges)
    assert same == g and same is not g
    assert graph_profile(same) == first
    again = graph_profile.cache_info()
    assert (again.hits - hit.hits, again.misses - hit.misses) == (0, 1)
    # Keyword calls are accepted too.
    assert graph_profile(g, base=2) == graph_profile(g, 2)


def test_default_and_explicit_base_share_one_memo_entry():
    g = build_graph(3, [(0, 1, 1.25), (1, 2, 0.5), (2, 0, 2.0), (0, 0, 0.75)])
    start = graph_profile.cache_info()
    assert graph_profile(g) is graph_profile(g, 0)
    end = graph_profile.cache_info()
    assert (end.hits - start.hits, end.misses - start.misses) == (1, 1)


# -- the lattice-size guard -------------------------------------------------------


def forest_count(g):
    """Edge sets of at most v - 2 non-loop edges without a cycle, by brute force."""
    links = [(a, b) for a, b, _ in g.edges if a != b]
    count = 0
    for k in range(max(0, g.vertex_count - 2) + 1):
        for subset in itertools.combinations(links, k):
            parent = list(range(g.vertex_count))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            acyclic = True
            for a, b in subset:
                ra, rb = find(a), find(b)
                if ra == rb:
                    acyclic = False
                    break
                parent[ra] = rb
            count += acyclic
    return count


def test_lattice_size_counts_the_lattice_it_does_not_build():
    rng = random.Random(909)
    graphs = [random_connected_multigraph(rng, 6, 12) for _ in range(40)]
    graphs += [named_corpus()["k4"], named_corpus()["prism"], build_graph(1, [(0, 0, 1.0)])]
    for g in graphs:
        nodes = len(invariants.contraction_lattice(g)) + 1  # the root is g itself
        assert invariants.lattice_size(g) == nodes == forest_count(g), g.edges
    k6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    for copies, nodes in ((1, 1636), (2, 21211), (3, 100216), (4, 306061)):
        g = build_graph(6, [(a, b, 1.0) for a, b in k6 for _ in range(copies)])
        assert invariants.lattice_size(g) == nodes


def test_walks_refuse_a_lattice_over_its_node_cap():
    k6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    g = build_graph(6, [(a, b, 1.0 + 0.125 * copy) for a, b in k6 for copy in range(3)])
    start = time.perf_counter()
    for walk in (invariants.contraction_lattice, tau_oracle_contraction, N_of, w_nested):
        with pytest.raises(TooLarge, match="100216 nodes"):
            walk(g)
    assert time.perf_counter() - start < 1.0
    # A cycle on 20 vertices is refused from its spanning trees alone.
    ring = build_graph(20, [(i, (i + 1) % 20, 1.0) for i in range(20)])
    with pytest.raises(TooLarge, match="at least 524287 nodes"):
        invariants.contraction_lattice(ring)

