import dataclasses
import gc
import hashlib
import math
import random
import time

import pytest

from taulab import fuzzing, graphs, identities, invariants, transforms
from taulab.connectivity import N_of, edge_connectivity
from taulab.errors import BridgePresent, SameVertex, SingularSystem, TooLarge, TooSmall, WouldDisconnect
from taulab.fuzzing import (
    named_corpus,
    random_bridgeless_multigraph,
    random_connected_multigraph,
    random_length,
)
from taulab.graphs import MetrizedGraph, build_graph, component_labels
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


@pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40])
def test_cross_base_check_refuses_a_relative_disagreement_at_every_scale(k4, monkeypatch, scale):
    # Scaling by a power of 2 is exact, so only the unit changes: a tau that
    # differs by 1e-6 relative at its second base is refused at every unit.
    g = k4.scaled(scale)
    assert tau(g) > 0.0
    profile = invariants.graph_profile

    def skewed(graph, base=0):
        prof = profile(graph, base)
        return prof if base == 0 else dataclasses.replace(prof, tau=prof.tau * (1.0 + 1e-6))

    monkeypatch.setattr(invariants, "graph_profile", skewed)
    with pytest.raises(SingularSystem, match="disagrees across base vertices"):
        tau(g)


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
        assert graph_profile(fine).z != pytest.approx(graph_profile(g).z, rel=1e-3) or g.genus == 0


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
    # The lattice keys are exactly the sets underlying admissible sequences,
    # and each leaf's core and loops are the replayed final graph's
    # non-loop edges and loop lengths, whatever the order of the sequence.
    looped_k4 = build_graph(4, k4.edges + ((2, 2, 0.5), (0, 3, 2.0)))
    for g in (triangle, k4, looped_k4):
        leaves = {key: (core, loops) for key, core, loops in admissible_leaf_nodes(g)}
        from_sequences = set()
        for ids, _, graph in replay(g, g.vertex_count - 2):
            core, loops = leaves[frozenset(ids)]
            assert core.vertex_count == graph.vertex_count == 2
            assert core.edges == tuple(e for e in graph.edges if e[0] != e[1]), ids
            assert loops == tuple(length for a, b, length in graph.edges if a == b), ids
            from_sequences.add(frozenset(ids))
        assert set(leaves) == from_sequences


def test_nested_sum_equals_explicit_sequence_sum(k4, replay):
    # One walk for every depth against a replay of every admissible
    # sequence, multiplying the R/(L+R) weight of each step in the graph
    # current at that step.  The walk's leaf reads a node's core and loop
    # lengths, the replay's the real contracted graph.
    def leaf_xy_gap(graph):
        prof = graph_profile(graph)
        return prof.x - prof.y

    leaves = (
        (invariants.node_tau, tau),
        (lambda core, loops: leaf_xy_gap(core), leaf_xy_gap),
        (invariants.node_z, lambda graph: graph_profile(graph).z),
    )
    for g in (k4, named_corpus()["prism"]):
        depths = range(1, g.vertex_count - 1)
        for leaf, replayed_leaf in leaves:
            fast = nested_weighted_sum(g, depths, leaf)
            slow = [
                math.fsum(weight * replayed_leaf(graph) for _, weight, graph in replay(g, depth))
                for depth in depths
            ]
            assert fast == pytest.approx(slow, rel=1e-9)


def test_nested_sum_depth_cap(triangle, k4, monkeypatch):
    for depths in ([2], [1, 2]):
        with pytest.raises(TooLarge):
            nested_weighted_sum(triangle, depths, lambda graph: 0.0)
    for depths in ([-1], [1, -1]):
        with pytest.raises(TooSmall):
            nested_weighted_sum(k4, depths, lambda graph: 0.0)

    def must_not_run(g):
        raise AssertionError("built a lattice for no depth")

    monkeypatch.setattr(invariants, "contraction_lattice", must_not_run)
    assert nested_weighted_sum(k4, [], lambda graph: 0.0) == []


def test_tau_scales_exactly_with_powers_of_two():
    # Multiplying every length by 2^k is exact in floats, and every term of
    # tau is homogeneous of degree 1, so tau scales bit for bit.
    triangle = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
    cases = [(triangle, k) for k in (-320, -40, -1, 1, 40, 320)]
    rng = random.Random(3)
    for _ in range(60):
        g = random_connected_multigraph(rng, 6, 10)
        cases += [(g, k) for k in (-60, -20, 20, 60)]
    for g, k in cases:
        assert tau(g.scaled(2.0 ** k)) == tau(g) * 2.0 ** k, (g.edges, k)


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


def test_integral_oracles_refuse_a_fractional_segment_count(path2):
    # 2.7 used to run silently at 2 segments per edge.
    with pytest.raises(TooSmall, match="segments per edge must be an integer"):
        tau_oracle_integral(path2, 2.7)
    with pytest.raises(TooSmall, match="segments per edge must be an integer"):
        a_pq_oracle_integral(path2, 0, 2, 2.7)


def test_contraction_oracle_agrees():
    rng = random.Random(85)
    for _ in range(20):
        g = random_connected_multigraph(rng, 6, 10)
        assert tau_oracle_contraction(g) == pytest.approx(tau(g), rel=1e-9, abs=1e-12)


# sha256 of repr(tau_oracle_contraction(g)), one line per graph, over the
# report_graphs fixture then named_corpus(): graphs of at most 6 vertices,
# so every float comes from pure Python.
PINNED_ORACLE_SHA256 = "6714bb80023776ab884a37fedfc09e914d44def5e9cb3354d59930b343c18c62"


def test_contraction_oracle_bits_are_pinned(report_graphs):
    digest = hashlib.sha256()
    for g in report_graphs + list(named_corpus().values()):
        digest.update((repr(tau_oracle_contraction(g)) + "\n").encode())
    assert digest.hexdigest() == PINNED_ORACLE_SHA256


def test_contraction_oracle_size_cap():
    ring = build_graph(8, [(i, (i + 1) % 8, 1.0) for i in range(8)])
    assert tau_oracle_contraction(ring) == pytest.approx(tau(ring), rel=1e-12)
    big = build_graph(14, [(i, (i + 1) % 14, 1.0) for i in range(14)])
    with pytest.raises(TooLarge, match="more than 5000 nodes"):
        tau_oracle_contraction(big)


def exhaustive_walks_agree(g):
    """The three lattice walks against their closed routes on one graph."""
    assert tau_oracle_contraction(g) == pytest.approx(tau(g), rel=1e-12, abs=0.0), g.edges
    assert N_of(g) == edge_connectivity(g), g.edges
    assert w_nested(g) == pytest.approx(w_of(g), rel=1e-12, abs=0.0), g.edges


def test_exhaustive_walks_reach_every_lattice_under_the_node_cap():
    # The node count is the walks' only size guard.  The lattice of the
    # n-cycle holds its 2^n - 1 - n edge sets of at most n - 2 edges: 1,013
    # at n = 10, 4,083 at n = 12 and 16,369 at n = 14.
    rng = random.Random(0)
    for n in range(7, 13):
        exhaustive_walks_agree(build_graph(n, [(i, (i + 1) % n, random_length(rng)) for i in range(n)]))
    ring = build_graph(10, [(i, (i + 1) % 10, 1.0) for i in range(10)])
    assert len(invariants.contraction_lattice(ring)) == 1013
    exhaustive_walks_agree(ring)
    ring = build_graph(14, [(i, (i + 1) % 14, 1.0) for i in range(14)])
    for walk in (tau_oracle_contraction, N_of, w_nested):
        with pytest.raises(TooLarge, match="more than 5000 nodes"):
            walk(ring)
    # Random bridgeless multigraphs of 7 or more vertices whose lattices
    # the cap accepts.
    accepted = 0
    while accepted < 50:
        g = random_bridgeless_multigraph(rng, 12, 15)
        if g.vertex_count >= 7 and invariants.lattice_refusal(g) is None:
            exhaustive_walks_agree(g)
            accepted += 1


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


# -- the lattice guard ------------------------------------------------------------


def forest_count(g, stop=math.inf):
    """Edge sets of at most v - 2 non-loop edges without a cycle, by brute force.

    Each forest grows from a smaller one by an edge of higher index whose
    ends lie in different components.  Counting stops once it passes stop.
    """
    links = [(a, b) for a, b, _ in g.edges if a != b]
    depth = max(0, g.vertex_count - 2)
    count = 0
    # (forest size, component label of each vertex, first edge index to try)
    stack = [(0, tuple(range(g.vertex_count)), 0)]
    while stack and count <= stop:
        size, label, start = stack.pop()
        count += 1
        if size < depth:
            for i in range(start, len(links)):
                a, b = label[links[i][0]], label[links[i][1]]
                if a != b:
                    stack.append((size + 1, tuple(a if x == b else x for x in label), i + 1))
    return count


def test_the_lattice_has_one_node_per_forest():
    rng = random.Random(909)
    graphs = [random_connected_multigraph(rng, 6, 12) for _ in range(40)]
    graphs += [named_corpus()["k4"], named_corpus()["prism"], build_graph(1, [(0, 0, 1.0)])]
    k6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    graphs.append(build_graph(6, [(a, b, 1.0) for a, b in k6]))
    for g in graphs:
        assert len(invariants.contraction_lattice(g)) == forest_count(g), g.edges
    assert len(invariants.contraction_lattice(graphs[-1])) == 1636


def test_each_depth_of_the_lattice_comes_in_key_order():
    # The builder's own order is the one admissible_leaf_nodes promises:
    # depth by depth, and within a depth lexicographic in the sorted keys.
    rng = random.Random(1)
    built = 0
    for _ in range(600):
        g = random_connected_multigraph(rng, 7, 14)
        if invariants.lattice_refusal(g) is not None:
            continue
        built += 1
        keys = [(len(key), sorted(key)) for key, _, _, _ in invariants.contraction_lattice(g)]
        assert keys == sorted(keys), g.edges
        leaves = [key for key, _, _ in admissible_leaf_nodes(g)]
        assert leaves == sorted(leaves, key=sorted), g.edges
    assert built >= 300, built


def test_the_guard_refuses_exactly_the_lattices_over_the_cap():
    # Multigraphs of 2-7 vertices, loops included, with every edge repeated
    # up to three times: their forest counts fall on both sides of the cap.
    # Each graph is dropped before the next, so the lattices kept alive stay few.
    rng = random.Random(1)
    cap = invariants.LATTICE_NODE_CAP
    accepted = refused = near = 0
    for _ in range(300):
        v = rng.randint(2, 7)
        pairs = fuzzing._random_tree_edges(rng, v)
        pairs += [(rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(0, v - 1))]
        g = build_graph(v, [(a, b, 1.0) for a, b in pairs for _ in range(rng.randint(1, 3))])
        forests = forest_count(g, stop=cap)
        if invariants.lattice_refusal(g) is None:
            assert forests <= cap, g.edges
            assert len(invariants.contraction_lattice(g)) == forests, g.edges
            accepted += 1
            near += forests > cap // 5
        else:
            assert forests > cap, g.edges
            refused += 1
    assert accepted > 250 and refused > 10 and near > 20, (accepted, refused, near)


def test_the_build_stops_one_node_past_the_cap():
    # Two multigraphs on K5's pairs with 5,000 and 5,001 forests: the
    # build accepts the first and stops at the last node of the second.
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    at_cap = (5, 4, 4, 5, 0, 3, 4, 5, 3, 2)
    past_cap = (5, 3, 1, 2, 5, 5, 5, 2, 3, 4)
    for copies, forests in ((at_cap, 5000), (past_cap, 5001)):
        g = build_graph(5, [(a, b, 1.0) for (a, b), k in zip(pairs, copies) for _ in range(k)])
        assert forest_count(g) == forests
        if copies is at_cap:
            assert invariants.lattice_refusal(g) is None
            assert len(invariants.contraction_lattice(g)) == forests
        else:
            assert invariants.lattice_refusal(g) == (
                "contraction lattice has more than 5000 nodes, capped at 5000"
            )


def test_edge_counts_alone_refuse_a_lattice(monkeypatch):
    # Graphs whose edge counts alone force more than 5,000 nodes: the key
    # walk refuses each at its node cap, fast and before any contraction.
    def must_not_run(g, i):
        raise AssertionError("contracted an edge of a refused lattice")

    monkeypatch.setattr(transforms, "contract_edge", must_not_run)
    monkeypatch.setattr(invariants, "_contract", must_not_run)
    cases = (
        # 2^19 - 1 subsets of one spanning tree
        build_graph(20, [(i, (i + 1) % 20, 1.0) for i in range(20)]),
        # 1 + 3,000 + C(3000, 2) - 15 C(200, 2) nodes of depth at most 2
        build_graph(6, [(a, b, 1.0) for a in range(6) for b in range(a + 1, 6) for _ in range(200)]),
        # the root and one node per link
        build_graph(3, [(0, 1, 1.0)] * 2500 + [(1, 2, 1.0)] * 2500),
    )
    for g in cases:
        start = time.perf_counter()
        assert invariants.lattice_refusal(g) == (
            "contraction lattice has more than 5000 nodes, capped at 5000"
        )
        assert time.perf_counter() - start < 0.5, g.edge_count
    # Two vertices contract no further: the root alone, whatever the multiplicity.
    banana = build_graph(2, [(0, 1, 1.0)] * 6000)
    assert invariants.lattice_refusal(banana) is None
    assert len(invariants.contraction_lattice(banana)) == 1


def live_graphs():
    gc.collect()
    return {id(obj): obj for obj in gc.get_objects() if isinstance(obj, MetrizedGraph)}


def test_the_lattice_builds_one_graph_per_partition_and_contracts_nothing(monkeypatch):
    # A 6-vertex multigraph with a loop and a parallel pair.  The lattice
    # builds one core per vertex partition of its nodes, shared by every
    # node of that partition, without contract_edge and without a bridge
    # pass; verify_all then profiles g at each base, each core once and
    # each record's surgeries, and glues no looped graph.
    edges = [(0, 1, 1.0), (0, 1, 2.5), (1, 2, 0.7), (2, 3, 1.3), (3, 4, 0.4), (4, 5, 1.1),
             (5, 0, 0.9), (1, 4, 3.0), (2, 2, 0.6), (2, 5, 5.0), (0, 3, 1.7)]
    g = build_graph(6, edges)
    assert g.is_bridgeless()
    built = 0
    unchecked = MetrizedGraph._unchecked.__func__

    def counted(cls, vertex_count, edges):
        nonlocal built
        built += 1
        return unchecked(cls, vertex_count, edges)

    def must_not_run(*args):
        raise AssertionError("contracted an edge to build the lattice")

    with monkeypatch.context() as patch:
        patch.setattr(MetrizedGraph, "_unchecked", classmethod(counted))
        patch.setattr(transforms, "contract_edge", must_not_run)
        passes = graphs._bridge_ids.cache_info().misses
        lattice = invariants.contraction_lattice(g)
        assert graphs._bridge_ids.cache_info().misses == passes
    core_of = {}
    for key, core, _, _ in lattice:
        partition = tuple(component_labels(6, [edges[i] for i in key]))
        assert core_of.setdefault(partition, core) is core
    assert built == len(core_of) == len({id(core) for _, core, _, _ in lattice}) < len(lattice)

    memos = (invariants._profile_at, invariants._contract, invariants._delete, invariants._da, invariants._loopify)
    before = [memo.cache_info().misses for memo in memos]
    h = build_graph(6, edges)
    identities.verify_all(h)
    profiles, *surgeries, looped = (memo.cache_info().misses - start for memo, start in zip(memos, before))
    partitions = len({id(core) for _, core, _, _ in invariants.contraction_lattice(h)})
    assert partitions == len(core_of) and looped == 0
    assert profiles == h.vertex_count + partitions + sum(surgeries), (profiles, partitions, surgeries)


def test_a_refused_lattice_builds_no_graph(monkeypatch):
    # The keys are walked before any graph is made, so a lattice refused
    # at its node cap leaves no graph behind, not even g's contractions.
    k6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    g = build_graph(6, [(a, b, 1.0 + 0.125 * copy) for a, b in k6 for copy in range(3)])
    built = 0
    unchecked = MetrizedGraph._unchecked.__func__

    def counted(cls, vertex_count, edges):
        nonlocal built
        built += 1
        return unchecked(cls, vertex_count, edges)

    monkeypatch.setattr(MetrizedGraph, "_unchecked", classmethod(counted))
    before = live_graphs()
    assert "more than 5000 nodes" in invariants.lattice_refusal(g)
    assert built == 0
    assert live_graphs().keys() == before.keys()
    for walk in (invariants.contraction_lattice, tau_oracle_contraction, N_of, w_nested):
        with pytest.raises(TooLarge, match="more than 5000 nodes"):
            walk(g)
    assert invariants.lattice_refusal(g) is not None
    assert built == 0


def test_walks_refuse_a_lattice_over_its_node_cap():
    k6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    g = build_graph(6, [(a, b, 1.0 + 0.125 * copy) for a, b in k6 for copy in range(3)])
    start = time.perf_counter()
    for walk in (invariants.contraction_lattice, tau_oracle_contraction, N_of, w_nested):
        with pytest.raises(TooLarge, match="more than 5000 nodes"):
            walk(g)
    assert time.perf_counter() - start < 1.0
    # A cycle on 20 vertices has 2^19 - 1 lattice nodes; the walk stops at the cap.
    ring = build_graph(20, [(i, (i + 1) % 20, 1.0) for i in range(20)])
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="more than 5000 nodes"):
        invariants.contraction_lattice(ring)
    assert time.perf_counter() - start < 0.5

