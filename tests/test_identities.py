import collections
import gc
import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from taulab import circuit, connectivity, fuzzing, identities, invariants, transforms
from taulab.errors import BadTolerance, NotApplicable, TauLabError, UnknownIdentityId
from taulab.fuzzing import (
    named_corpus,
    random_bridgeless_multigraph,
    random_connected_multigraph,
)
from taulab.graphs import MetrizedGraph, build_graph
from taulab.identities import identity_ids, verify, verify_all
from test_circuit import exact_deleted_inverse, exact_tau

ALL_IDS = identity_ids()


def failing(reports):
    return [r for r in reports if r.applicable and not r.passed]


def test_registry_shape():
    assert len(ALL_IDS) == 40
    assert len(set(ALL_IDS)) == 40
    assert ALL_IDS[0] == "GENUS"
    assert ALL_IDS[-1] == "EDGECON11"


def test_unknown_id_raises(triangle):
    with pytest.raises(UnknownIdentityId):
        verify(triangle, "NOT_AN_IDENTITY")


def test_report_fields(triangle):
    r = verify(triangle, "GENUS")
    assert r.identity == "GENUS"
    assert r.applicable and r.passed
    assert r.checks >= 1
    assert isinstance(r.lhs, float) and isinstance(r.rhs, float)
    assert r.residual is not None and r.residual <= 1e-12
    assert r.slack is not None
    assert r.note


def test_corpus_passes_everything():
    for name, g in named_corpus().items():
        for graph in (g, g.normalize()):
            bad = failing(verify_all(graph))
            assert not bad, (name, [(r.identity, r.residual, r.slack) for r in bad])


def test_every_identity_runs_somewhere():
    # guards must not quietly disable an identity across the whole corpus
    ran = {ident: 0 for ident in ALL_IDS}
    for g in named_corpus().values():
        for graph in (g, g.normalize()):
            for r in verify_all(graph):
                if r.applicable:
                    ran[r.identity] += 1
    never = [ident for ident, count in ran.items() if count == 0]
    assert not never, never


def test_fuzzed_multigraphs_pass():
    rng = random.Random(1234)
    for _ in range(30):
        g = random_connected_multigraph(rng, 6, 12)
        bad = failing(verify_all(g))
        assert not bad, (g, [(r.identity, r.residual, r.slack) for r in bad])


def test_fuzzed_wide_spread_multigraphs_pass():
    # Lengths log-uniform over a per-graph spread from 1e2 to 1e8, as in the
    # catalog benchmark.  Read through an explicit inverse of a Laplacian
    # assembled by sums, 7 of these 100 graphs missed 1e-9.
    rng = random.Random(3)
    for _ in range(100):
        g = random_connected_multigraph(rng, 6, 12)
        half = rng.uniform(2.0, 8.0) / 2.0
        g = build_graph(g.vertex_count, [(a, b, 10.0 ** rng.uniform(-half, half)) for a, b, _ in g.edges])
        bad = failing(verify_all(g, tol=1e-9))
        assert not bad, (g, [(r.identity, r.residual, r.slack) for r in bad])


def test_fuzzed_normalized_bridgeless_pass():
    rng = random.Random(4321)
    for _ in range(20):
        g = random_bridgeless_multigraph(rng, 6, 12).normalize()
        reports = verify_all(g)
        bad = failing(reports)
        assert not bad, (g, [(r.identity, r.residual, r.slack) for r in bad])
        # with total length 1 and no bridges, nothing should be skipped
        # except the nested-sum identities on graphs above their size cap
        for r in reports:
            if not r.applicable:
                assert "cap" in r.note or "vertices" in r.note, (r.identity, r.note)


def test_skip_reports_carry_reasons(path2, banana3):
    # single bridge edge: nothing deletable, bridgeless-only ids sit out
    reports = verify_all(build_graph(2, [(0, 1, 1.0)]))
    by_id = {r.identity: r for r in reports}
    assert not by_id["TAU_GENUS"].applicable
    assert "bridge" in by_id["TAU_GENUS"].note
    assert not by_id["CD_X"].applicable
    assert by_id["GENUS"].applicable  # weight sums hold for any graph
    # two-vertex graphs sit out the contraction family
    assert not by_id["TAU_CONTRACT"].applicable
    assert "vertices" in by_id["TAU_CONTRACT"].note
    # selected-but-inapplicable raises, the CLI turns that into a skip row
    with pytest.raises(NotApplicable):
        verify(path2, "TAU_GENUS")
    with pytest.raises(NotApplicable):
        verify(banana3, "TAU_CONTRACT")


# sha256 of the "identity applicable note" lines of verify_all on each graph
# of test_skip_table_is_pinned in turn.
PINNED_SKIP_TABLE_SHA256 = "47423b4a91979765dcd3f5ea53c9b2a1a2b64efa2e2bd536e5208a93ec1a1b43"


def test_skip_table_is_pinned():
    # Between them these six graphs hit every reason an identity is skipped
    # for, so a reordered or reworded precondition changes the table.
    graphs = [
        build_graph(1, []),
        build_graph(1, [(0, 0, 1.5)]),
        build_graph(2, [(0, 1, 1.0), (1, 1, 2.0)]),
        build_graph(3, [(0, 1, 0.25), (1, 2, 0.75)]),
        build_graph(7, [(i, i + 1, 1.0) for i in range(6)] + [(0, 6, 1.0), (1, 5, 1.0), (2, 4, 1.0)]),
        build_graph(7, [(i, (i + 1) % 6, 1.0) for i in range(6)] + [(0, 6, 1.0)]),
    ]
    reports = [r for g in graphs for r in verify_all(g)]
    assert len({r.note for r in reports if not r.applicable}) == 9
    table = "\n".join(f"{r.identity} {r.applicable} {r.note}" for r in reports)
    assert hashlib.sha256(table.encode()).hexdigest() == PINNED_SKIP_TABLE_SHA256


def test_normalization_gate(triangle):
    with pytest.raises(NotApplicable):
        verify(triangle, "NORM2TERM")
    with pytest.raises(NotApplicable):
        verify(triangle, "EDGECON11")
    assert verify(triangle.normalize(), "NORM2TERM").passed
    assert verify(triangle.normalize(), "EDGECON11").passed


def test_tolerance_is_respected(triangle):
    # lengths with no short binary representation: residuals are tiny but
    # not exactly zero somewhere in the catalog, so a zero tolerance and a
    # huge one must disagree
    g = build_graph(3, [(0, 1, 0.1), (1, 2, 0.37), (2, 0, 1.03)])
    strict = [r for r in verify_all(g, tol=0.0) if r.applicable and not r.passed]
    loose = [r for r in verify_all(g, tol=1.0) if r.applicable and not r.passed]
    assert strict  # at least one identity misses exact float equality
    assert not loose


def test_a_bad_tolerance_is_refused_before_any_precondition(path2, triangle):
    # path2 has bridges, which SUCC_R's first precondition refuses, and
    # verify_many would turn that refusal into a skip: the tolerance is
    # checked before it.
    for tol in (float("nan"), -1.0, "x", math.inf):
        for g in (path2, triangle):
            with pytest.raises(BadTolerance, match="must be a finite number >= 0"):
                verify(g, "SUCC_R", tol)
            with pytest.raises(BadTolerance):
                identities.verify_many(g, ["GENUS", "SUCC_R"], tol)
            with pytest.raises(TauLabError):
                verify_all(g, tol)
    assert verify(triangle, "GENUS", 0).passed


# -- spot values for single identities -----------------------------------------


def test_contraction_identity_on_triangle(triangle):
    r = verify(triangle, "TAU_CONTRACT")
    assert r.lhs == pytest.approx(0.25, rel=1e-12)
    assert r.passed


def test_contract_delete_split_on_triangle(triangle):
    # edge 0: L = 1, R = 2; deletion leaves a length-2 segment (tau 1/2),
    # contraction a 2-banana (tau 1/6); the mixed term is -1/36
    r = verify(triangle, "CONT_DEL_TAU")
    expected = (1.0 / 3.0) * 0.5 + (2.0 / 3.0) * (1.0 / 6.0) - 1.0 / 36.0
    assert expected == pytest.approx(0.25, rel=1e-15)
    assert r.lhs == pytest.approx(0.25, rel=1e-12)
    assert r.passed


def test_parallel_double_on_two_edge_circle():
    circle = build_graph(2, [(0, 1, 1.0), (1, 0, 1.0)])
    r = verify(circle, "DA_TAU")
    assert r.lhs == pytest.approx(1.0 / 8.0, rel=1e-12)
    assert r.passed


def test_doubled_graph_on_wide_spread_tree():
    # A 5-vertex tree with lengths from 1.7e-4 to 8.0e3: read through an
    # explicit inverse, DA_TAU's residual came out at 7.1e-9 against 1e-9.
    g = build_graph(5, [
        (0, 4, 8029.5159330014385), (1, 3, 1145.532831655931),
        (2, 4, 0.00017114072622146333), (3, 4, 768.9116034598302),
    ])
    r = verify(g, "DA_TAU")
    assert r.passed, (r.residual, r.lhs, r.rhs)


def test_deletion_defect_identities(triangle):
    for ident in ("K_NONNEG", "K_CONTRACT", "DEL_ID_A", "DEL_ID_DA"):
        r = verify(triangle, ident)
        assert r.passed, (ident, r.residual, r.slack)
    r = verify(triangle, "K_CONTRACT")
    assert r.lhs == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_banana_leaf_closed_form(banana3):
    r = verify(banana3, "BANANA_XY")
    assert r.passed
    # x = (n - 1) r', y = r' with n = 3 and harmonic length 1/3
    assert r.lhs == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_z_x_bound_is_tight_on_bananas(banana3):
    r = verify(banana3, "Z_X_BOUND")
    assert r.passed
    assert r.slack == pytest.approx(0.0, abs=1e-12)


def test_genus_route_to_tau(k4):
    for ident in ("TAU_GENUS", "TAU_GENUS_LB", "TAU_CONTR2", "TAU_DEL2", "TAU_MAIN5"):
        r = verify(k4, ident)
        assert r.passed, (ident, r.residual, r.slack)


def test_euler_routes(k4, triangle):
    for g in (k4, triangle):
        assert verify(g, "EULER_Z").passed
        assert verify(g, "EULER_XY").passed


def test_succession_identities(k4):
    for ident in ("SUCC_XY", "SUCC_TAU", "SUCC_R", "SUCC_Z", "SUCC_R_BOUNDS"):
        r = verify(k4, ident)
        assert r.passed, (ident, r.residual, r.slack)
        assert r.checks >= 2  # k = 1 and k = 2 both checked


def test_succ_r_holds_at_spreads_up_to_1e16():
    # Lengths log-uniform over spreads 10**U(8, 16): the contracted length
    # is the leaf value, and a difference of two rounded totals lost it.
    rng = random.Random(5)
    checked = 0
    for _ in range(200):
        g = random_bridgeless_multigraph(rng, 6, 12)
        power = rng.uniform(8.0, 16.0) / 2.0
        g = build_graph(g.vertex_count, [(a, b, 10.0 ** (math.log10(L) * power)) for a, b, L in g.edges])
        if g.vertex_count >= 3:
            checked += 1
            r = verify(g, "SUCC_R")
            assert r.passed, (g.edges, r.residual)
    assert checked == 139
    # Two unit edges beside a 1e20 edge: the leaf total dropped a unit
    # edge, and the rows read 4 against 2.
    r = verify(build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1e20)]), "SUCC_R")
    assert (r.lhs, r.rhs, r.residual) == (4.0, 4.0, 0.0)


def test_succ_r_leaf_is_the_contracted_length_rounded_once(monkeypatch):
    leaves = []
    real = invariants.nested_weighted_sum

    def spy(g, depths, leaf_value):
        leaves.append(leaf_value)
        return real(g, depths, leaf_value)

    monkeypatch.setattr(invariants, "nested_weighted_sum", spy)
    rng = random.Random(28)
    graphs = [build_graph(3, [(0, 1, 1e-100), (1, 2, 1e-100), (2, 0, 1e100)])]
    for _ in range(40):
        g = random_bridgeless_multigraph(rng, 6, 12)
        spread = 10.0 ** rng.uniform(8.0, 16.0)
        graphs.append(build_graph(g.vertex_count, [(a, b, spread ** rng.random()) for a, b, _ in g.edges]))
    nodes = 0
    for g in graphs:
        if g.vertex_count < 3:
            continue
        verify(g, "SUCC_R")
        leaf = leaves.pop()
        for key, core, _, loops in invariants.contraction_lattice(g)[1:]:
            exact = sum(Fraction(g.edges[i][2]) for i in key)
            assert leaf(core, loops) == float(exact), (g.edges, sorted(key))
            nodes += 1
    assert nodes > 1000, nodes


NESTED_IDS = ("SUCC_XY", "SUCC_TAU", "SUCC_R", "SUCC_Z", "BANANA_XY", "TAU_MAIN5", "W_ID", "AHM")


def replay_key(g, key, rng):
    """G/key by transforms.contract_edge, one original edge at a time, in a random order."""
    graph, alive = g, list(range(g.edge_count))
    for orig in rng.sample(sorted(key), len(key)):
        j = alive.index(orig)
        graph = transforms.contract_edge(graph, j)
        del alive[j]
    return graph


def nested_leaves(g, monkeypatch):
    """The leaf function that each nested-sum identity hands nested_weighted_sum on g, by identity id."""
    leaves = {}
    for ident in ("SUCC_XY", "SUCC_TAU", "SUCC_R", "SUCC_Z", "TAU_MAIN5", "W_ID"):
        if ident == "W_ID" and not g.is_bridgeless():
            continue  # w_nested refuses a bridge before it sums
        with monkeypatch.context() as patch:
            patch.setattr(invariants, "nested_weighted_sum",
                          lambda h, depths, leaf, ident=ident: leaves.setdefault(ident, leaf) and [0.0] * len(depths))
            identities._REGISTRY[ident][0](g)
    return leaves


def test_every_lattice_node_reads_its_core_view_bit_for_bit(report_graphs, monkeypatch):
    # At every node the graph G/F, replayed by contract_edge along the key
    # in a random order, and the node's core and loop lengths give the same
    # bits: tau, z, ell and x - y, the weights of the non-loop edges, every
    # leaf value of the nested identities and of w_nested, and at the
    # 2-vertex nodes what BANANA_XY and AHM read.
    prism = fuzzing.named_corpus()["prism"]
    graphs = report_graphs + [
        build_graph(5, [(a, b, 1.0 + 0.1 * (a + 2 * b)) for a in range(5) for b in range(a + 1, 5)]),
        build_graph(6, [e for a, b, L in prism.edges for e in ((a, b, L), (a, b, 1.5 * L))]),
    ]
    rng = random.Random(4141)
    prof = invariants.graph_profile

    def references(g, h):
        p = prof(h)
        return {
            "SUCC_XY": p.x - p.y,
            "SUCC_TAU": p.tau,
            "SUCC_R": math.fsum([L for _, _, L in g.edges] + [-L for _, _, L in h.edges]),
            "SUCC_Z": p.z,
            "W_ID": math.fsum(L if a == b else L ** 3 / ((L + R) * (L + R))
                              for (a, b, L), R in zip(h.edges, p.columns.resistance)),
        }

    def two_vertex_reads(graph):
        count, harmonic = invariants.banana_stats(graph)
        p = prof(graph)
        parallel_z = math.fsum(L * L / (L + R) for (a, b, L), R in zip(graph.edges, p.columns.resistance) if a != b)
        return count, harmonic, (count - 2) * harmonic, p.x, p.y, parallel_z

    seen = collections.Counter()
    for g in graphs:
        if invariants.lattice_refusal(g) is not None:
            continue
        leaves = nested_leaves(g, monkeypatch)
        for key, core, _, loops in invariants.contraction_lattice(g):
            h = replay_key(g, key, rng)
            p, c = prof(h), prof(core)
            assert core.vertex_count == h.vertex_count
            assert invariants.node_tau(core, loops) == p.tau, (g.edges, sorted(key))
            assert invariants.node_z(core, loops) == p.z, (g.edges, sorted(key))
            assert invariants._node_length(core, loops) == h.total_length
            assert c.x - c.y == p.x - p.y
            plain = [j for j, (a, b, _) in enumerate(h.edges) if a != b]
            assert list(c.weight_resistance) == [p.weight_resistance[j] for j in plain]
            assert list(c.weight_length) == [p.weight_length[j] for j in plain]
            want = references(g, h)
            if h.vertex_count == 2:
                reads = two_vertex_reads(core)
                # By repr, exact for floats, where a bridge makes parallel_z NaN.
                assert list(map(repr, reads)) == list(map(repr, two_vertex_reads(h))), (g.edges, sorted(key))
                want["TAU_MAIN5"] = reads[2]
                seen["2-vertex node"] += 1
            for ident, leaf in leaves.items():
                if ident in want:
                    assert leaf(core, loops) == want[ident], (ident, g.edges, sorted(key))
                    seen[ident] += 1
            seen["looped node"] += bool(loops)
            seen["bridged node"] += bool(core.bridges())
    assert min(seen.values()) > 300, seen


def test_nested_identities_respect_size_cap():
    ladder = build_graph(7, (
        [(i, i + 1, 1.0) for i in range(6)]
        + [(0, 6, 1.0), (1, 5, 1.0), (2, 4, 1.0)]
    ))
    reports = {r.identity: r for r in verify_all(ladder)}
    for ident in NESTED_IDS:
        assert not reports[ident].applicable, ident
    # everything without a nested sum still runs at 7 vertices
    assert reports["TAU_CONTRACT"].applicable and reports["TAU_CONTRACT"].passed
    assert reports["CD_X"].applicable and reports["CD_X"].passed


def test_nested_identities_skip_a_lattice_over_its_node_cap():
    # K6 with every pair tripled: 6 vertices, under NESTED_VERTEX_CAP, but
    # 100,216 lattice nodes.  The build stops at the node cap.
    k6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    g = build_graph(6, [(a, b, 1.0 + 0.125 * copy) for a, b in k6 for copy in range(3)])
    start = time.perf_counter()
    reports = identities.verify_many(g, NESTED_IDS)
    assert time.perf_counter() - start < 1.0
    for r in reports:
        assert not r.applicable and "more than 5000 nodes" in r.note, (r.identity, r.note)
    # K6 itself (1,636 nodes) stays under the cap.
    k6_reports = identities.verify_many(build_graph(6, [(a, b, 1.0) for a, b in k6]), ["SUCC_TAU"])
    assert k6_reports[0].applicable and k6_reports[0].passed


def test_edge_crossing_is_A_of_the_deleted_graph_bit_for_bit(report_graphs):
    # Every field of every edge record equals, bit for bit, the value read
    # off surgeries built directly, and is None exactly where a bridge, or
    # a bridge elsewhere in g, leaves it undefined.  On 3 or more vertices,
    # where TAU_CONTRACT runs, the looped graph's tau it derives from G's
    # length and the record's G/e scalars is the built graph's.  The
    # record sums its crossings over G's own stars of e; on the all-GTH
    # route they are A_pq of G - e, bit for bit, and of DA(G - e), whose
    # stars the record takes as a quarter of G - e's, within 1e-12.  The 25
    # bridgeless graphs come first, then 8 bridgeless ones of 10 to 12
    # vertices, which take the closed-form route (the looped tau is read off
    # G/e on both routes), then the fuzz graphs, with loops and bridges.
    # On the closed-form graphs A_pq reads the inverse of G - e plus a new
    # edge, not G's, so their crossings are checked against exact rationals
    # instead (test_closed_form_crossings_match_exact_rationals).
    rng = random.Random(7070)
    graphs = []
    for _ in range(25):
        g = random_bridgeless_multigraph(rng, 6, 12)
        spread = 10.0 ** rng.uniform(2.0, 8.0)
        graphs.append(build_graph(g.vertex_count, [(a, b, spread ** rng.random()) for a, b, _ in g.edges]))
    while sum(g.vertex_count >= 10 for g in graphs) < 8:
        g = random_bridgeless_multigraph(rng, 12, 24)
        if g.vertex_count >= 10:
            graphs.append(build_graph(g.vertex_count, [(a, b, 10.0 ** rng.uniform(-1.0, 1.0)) for a, b, _ in g.edges]))

    def scalars(h):
        prof = invariants.graph_profile(h)
        return (prof.x, prof.y, prof.z, prof.r, prof.tau)

    seen = collections.Counter()
    for g in graphs + report_graphs:
        bridgeless = g.is_bridgeless()
        assert invariants.doubled_tau(g) == invariants.graph_profile(transforms.double_adjusted(g)).tau
        for i, (a, b, _) in enumerate(g.edges):
            record = invariants.edge_record(g, i)
            assert record.contracted == scalars(transforms.contract_edge(g, i)), (g.edges, i)
            if g.vertex_count >= 3:
                ell = invariants.graph_profile(g).ell
                looped = ell / 12.0 - record.contracted.x / 6.0 + record.contracted.y / 6.0
                assert looped == invariants.graph_profile(transforms.identify_endpoints(g, i)).tau, (g.edges, i)
                seen["looped, closed form"] += circuit.closed_form(g) is not None
            if i in g.bridges():
                undefined = (record.deleted, record.crossing, record.doubled_tau, record.doubled_crossing)
                assert undefined == (None,) * 4, (g.edges, i)
                seen["bridge"] += 1
                continue
            deleted = transforms.delete_edge(g, i)
            doubled = transforms.double_adjusted(deleted)
            assert record.deleted == scalars(deleted), (g.edges, i)
            gth = circuit.closed_form(g) is None
            if a == b:
                assert record.crossing == 0.0
                seen["loop"] += 1
            elif gth:
                assert record.crossing == invariants.A_pq(deleted, a, b), (g.edges, i)
                seen["crossing"] += 1
            if not bridgeless:
                assert record.doubled_tau is None and record.doubled_crossing is None
                seen["in a bridged graph"] += 1
                continue
            assert record.doubled_tau == invariants.graph_profile(doubled).tau, (g.edges, i)
            if a == b:
                assert record.doubled_crossing == 0.0
            elif gth:
                direct = invariants.A_pq(doubled, a, b)
                assert abs(record.doubled_crossing - direct) <= 1e-12 * direct, (g.edges, i)
    assert seen["crossing"] > 300 and min(seen.values()) > 20, seen


def test_loops_flow_through_the_catalog():
    g = build_graph(2, [(0, 1, 1.0), (0, 1, 2.0), (1, 1, 0.5), (0, 0, 3.0)])
    bad = failing(verify_all(g))
    assert not bad, [(r.identity, r.residual, r.slack) for r in bad]


def test_bridges_flow_through_the_catalog():
    # triangle with a pendant path: bridges, high valence, nothing breaks
    g = build_graph(5, [
        (0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5), (2, 3, 1.5), (3, 4, 0.25),
    ])
    bad = failing(verify_all(g))
    assert not bad, [(r.identity, r.residual, r.slack) for r in bad]


def test_edgecon_family_on_normalized_k4(k4):
    unit = k4.normalize()
    r = verify(unit, "EDGECON11")
    assert r.passed
    # x <= g y and (lambda - 1) y <= x pin x/y between 2 and 3 here
    prof = invariants.graph_profile(unit)
    x, y = prof.x, prof.y
    assert 2.0 * y <= x + 1e-12
    assert x <= 3.0 * y + 1e-12


# -- the per-graph memo ----------------------------------------------------------


def memo_graph(pendant=True):
    """A square with a chord, a parallel pair and a self-loop, plus a pendant bridge if asked."""
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (3, 0, 1.5), (0, 2, 3.0), (0, 2, 0.75), (1, 1, 0.25)]
    return build_graph(5, edges + [(3, 4, 1.25)]) if pendant else build_graph(4, edges)


def live_graphs():
    """Every MetrizedGraph the cyclic collector tracks, by id (no collection is run)."""
    return {id(obj): obj for obj in gc.get_objects() if isinstance(obj, MetrizedGraph)}


@pytest.mark.parametrize("pendant", [True, False])
def test_a_graphs_memo_is_freed_with_the_graph(pendant):
    # Without the pendant bridge the nested identities run and fill the
    # lattice.  With the cyclic collector off, the graph and every graph its
    # memo holds (lattice nodes; edge records hold floats) must go by
    # reference counting alone, as soon as the last reference does: no table
    # outside the graph keeps any of them.  before holds its graphs, so no
    # id is reused.
    gc.collect()
    before = live_graphs()
    gc.disable()
    try:
        g = memo_graph(pendant)
        verify_all(g)
        invariants.invariant_set(g)
        connectivity.lower_bounds(g)
        invariants.tau_oracle_contraction(g)
        assert len(live_graphs()) > len(before) + 10
        del g
        assert live_graphs().keys() == before.keys()
    finally:
        gc.enable()


class TopDraws(random.Random):
    """Every randint at its upper end: the fuzz generator's largest case."""

    def randint(self, a, b):
        return b


def test_verify_all_leaves_no_surgery_graph_alive():
    # 6 vertices with 30 and 90 edges, every fuzz draw at its upper end:
    # both lattices are refused, so after verify_all the graph's memo holds
    # floats only, however many edges it has.  Each surgery graph is freed
    # with the edge record that read it.
    held = []
    for edges in (30, 90):
        g = random_connected_multigraph(TopDraws(1), 6, edges)
        assert g.edge_count == edges and invariants.lattice_refusal(g) is not None
        gc.collect()
        before = live_graphs()
        verify_all(g)
        gc.collect()
        held.append(len(live_graphs().keys() - before.keys()))
    assert held == [0, 0], held


def test_deletion_defect_reuses_the_catalogs_surgeries(monkeypatch):
    g = memo_graph()
    verify(g, "CD_Z")
    built = []
    post_init = MetrizedGraph.__post_init__
    unchecked = MetrizedGraph._unchecked.__func__

    def counting(graph):
        built.append(graph)
        post_init(graph)

    def counting_unchecked(cls, vertex_count, edges):
        built.append(unchecked(cls, vertex_count, edges))
        return built[-1]

    # Surgeries build their outputs unchecked, so both constructors count.
    monkeypatch.setattr(MetrizedGraph, "__post_init__", counting)
    monkeypatch.setattr(MetrizedGraph, "_unchecked", classmethod(counting_unchecked))
    deletable = [i for i in range(g.edge_count) if i not in g.bridges()]
    assert len(deletable) == 7
    for i in deletable:
        invariants.K_definition(g, i)
        invariants.K_contraction_form(g, i)
    assert built == []


# The smallest known miss of the 1e-9 tolerance, a difference of two large
# sums that cancel.  It stays a strict xfail until K becomes a sum of
# non-negative terms (ROADMAP item 18).
@pytest.mark.xfail(strict=True, reason="K(G, e) = z(G) - own - z(G - e) cancels (ROADMAP item 18)")
def test_k_contract_on_a_two_edge_circle_of_spread_8e4():
    g = build_graph(2, [(0, 1, 505.06787927590153), (0, 1, 39795283.970232315)])
    report = verify(g, "K_CONTRACT")
    assert report.passed, report  # residual 1.89e-9 at edge 1


def test_del_id_a_on_a_triangle_of_spread_47():
    # A as a difference of taus missed here by 1.42e-9 at edge 1.  As a sum
    # of non-negative terms over the stars, the worst row is edge 2, at
    # 9.3e-10 (2**-30 against a floor of 1): its crossing, a path's between
    # its ends, is exactly 0, and what is left is the rounding of the
    # doubled crossing and of K.
    g = build_graph(3, [(0, 1, 24427247.6097695), (1, 2, 22313091.394492958), (2, 0, 516309.7379374328)])
    report = verify(g, "DEL_ID_A")
    assert report.passed, report


def test_a_pq_matches_the_exact_difference_of_taus():
    # catalog seed 0, graph 185, with edge 9 deleted.  A_pq's sum over the
    # stars reads 1.3912197478744419e-08 against the exact
    # 1.3912197478744417e-08; as a difference of taus it read
    # 1.3912197611015697e-08, 9.5e-9 relative.
    h = build_graph(4, [
        (0, 3, 1.3471986491937304), (1, 3, 3347.1940214920332), (2, 3, 5762.172185767841),
        (3, 0, 1.9542759235438667), (2, 2, 445.9657738412024), (1, 2, 8115.8372027553),
        (3, 3, 2156.5302725413594), (0, 0, 672.4754348032664), (1, 0, 0.0002212815234283858),
        (3, 1, 0.6441083861581883),
    ])
    K = exact_deleted_inverse(h.vertex_count, h.edges, None)
    r = K[0][0] + K[1][1] - 2 * K[0][1]
    exact = r * (exact_tau(transforms.identify_points(h, 0, 1)) - exact_tau(h) + r / 6)
    got = invariants.A_pq(h, 0, 1)
    assert abs(Fraction(got) - exact) <= Fraction(1e-9) * exact, (got, float(exact))


def exact_tau_from_one_inverse(g):
    """tau in Fractions from g's own resistances, bridges included.

    A non-loop edge (a, b, L) adds D^2/(4L) + (L - r)^2/(12L), with
    r = r(a, b) and D = r(0, a) - r(0, b); a loop adds L/12.  At a bridge
    r = L and D = +-L, so it adds L/4.
    """
    K = exact_deleted_inverse(g.vertex_count, g.edges, None)
    total = Fraction(0)
    for a, b, length in g.edges:
        L = Fraction(length)
        r = K[a][a] + K[b][b] - 2 * K[a][b]
        D = K[a][a] - K[b][b]
        total += L / 12 if a == b else D * D / (4 * L) + (L - r) ** 2 / (12 * L)
    return total


def exact_crossing(h, glued, a, b):
    """A(h; a, b) = r (tau(glued) - tau(h) + r/6) in Fractions, glued any graph equal to h with a, b glued, and r^2."""
    K = exact_deleted_inverse(h.vertex_count, h.edges, None)
    r = K[a][a] + K[b][b] - 2 * K[a][b]
    return r * (exact_tau_from_one_inverse(glued) - exact_tau_from_one_inverse(h) + r / 6), r * r


def test_record_crossings_match_exact_rationals_at_wide_spreads():
    # 25 six-vertex fuzz multigraphs at spreads 1e2 to 1e12.  In Fractions
    # A(G - e; a, b) = r (tau(G/e) - tau(G - e) + r/6), and likewise for
    # DA(G - e) glued into DA(G/e).  As a difference of taus the worst
    # crossing here was 3.7e-5 off; the sum over the stars is 3.6e-11 off.
    # An exact 0 (a and b joined through bridges of G - e alone) is checked
    # against r^2.
    rng = random.Random(10)
    seen = collections.Counter()
    for _ in range(25):
        g = random_connected_multigraph(rng, 6, 12)
        spread = 10.0 ** rng.uniform(2.0, 12.0)
        g = build_graph(g.vertex_count, [(a, b, spread ** rng.random()) for a, b, _ in g.edges])
        columns = [invariants.graph_profile(g, base).columns for base in range(g.vertex_count)]
        for i, (a, b, _) in enumerate(g.edges):
            if a == b or i in g.bridges():
                continue
            record = invariants.edge_record(g, i)
            deleted, contracted = transforms.delete_edge(g, i), transforms.contract_edge(g, i)
            pairs = [(record.crossing, exact_crossing(deleted, contracted, a, b))]
            if g.is_bridgeless():
                doubled = transforms.double_adjusted(deleted), transforms.double_adjusted(contracted)
                pairs.append((record.doubled_crossing, exact_crossing(*doubled, a, b)))
            for got, (want, floor) in pairs:
                assert abs(Fraction(got) - want) <= Fraction(1e-9) * (want or floor), (g.edges, i, got, float(want))
                seen["crossing"] += 1
            seen["bridge in G - e"] += bool(deleted.bridges())
            # V, the arm at b, is 1e6 times its real change across an edge:
            # there the crossing reads the change of W, the arm at a.
            V = [c.arm_second[i] for c in columns]
            W = [c.arm_first[i] for c in columns]
            seen["V over its change"] += any(
                max(V[u], V[w]) >= 1e6 * abs(W[u] - W[w]) >= 1e-6 * max(W[u], W[w]) > 0
                for u, w, _ in deleted.edges if u != w
            )
    assert seen["crossing"] > 200 and seen["bridge in G - e"] and seen["V over its change"], seen


def spread_graph(rng, lo, hi):
    """A fuzz multigraph of 10 to 12 vertices, v/2 to 2v edges beyond a spanning tree, lengths spread^U(0, 1) with spread 10^U(lo, hi)."""
    while True:
        g = random_connected_multigraph(rng, 12, 36)
        v = g.vertex_count
        if v >= 10 and v // 2 <= g.edge_count - (v - 1) <= 2 * v:
            spread = 10.0 ** rng.uniform(lo, hi)
            return build_graph(v, [(a, b, spread ** rng.random()) for a, b, _ in g.edges])


def test_closed_form_crossings_match_exact_rationals():
    # The closed-form route sums A over the stars too, with the arm at the
    # base from the rank-one update of G's inverse.  Record crossings and
    # doubled crossings on graphs 3 and 7 of spread_graph(random.Random(12),
    # 2, 8), A_pq on 8 pairs of each of graphs 9 and 21 of
    # spread_graph(random.Random(21), 2, 8), all against Fractions.  As a
    # difference of taus the worst of these missed by 1.6e-5, 1.2e-4, 1.1e-7
    # and 1.2e-7; the star sum is within 4e-9, 2.1e-8 on A_pq.  Graph 6 of
    # the first corpus still misses on both forms (1.5e-4 off, an A of 4 for
    # an r^2 of 6.6e12: ROADMAP item 20).  Last, a unicyclic graph whose
    # G - e is a tree, where A is exactly 0 and is checked against r^2.
    rng = random.Random(12)
    first = [spread_graph(rng, 2.0, 8.0) for _ in range(8)]
    rng = random.Random(21)
    second = []
    for _ in range(22):
        g = spread_graph(rng, 2.0, 8.0)
        second.append((g, [tuple(rng.sample(range(g.vertex_count), 2)) for _ in range(8)]))
    rng = random.Random(5)
    tree = [(v, rng.randrange(v), 10.0 ** rng.uniform(-1.0, 3.0)) for v in range(1, 11)]
    unicyclic = build_graph(11, tree + [(0, 10, 2.0)])
    pairs = []
    for g in (first[3], first[7], unicyclic):
        assert circuit.closed_form(g) is not None
        for i, (a, b, _) in enumerate(g.edges):
            if a == b or i in g.bridges():
                continue
            record = invariants.edge_record(g, i)
            deleted, contracted = transforms.delete_edge(g, i), transforms.contract_edge(g, i)
            pairs.append((record.crossing, exact_crossing(deleted, contracted, a, b)))
            if g.is_bridgeless():
                doubled = transforms.double_adjusted(deleted), transforms.double_adjusted(contracted)
                pairs.append((record.doubled_crossing, exact_crossing(*doubled, a, b)))
    tree_edge = unicyclic.edge_count - 1
    assert pairs[-1] == (invariants.edge_record(unicyclic, tree_edge).crossing, (0, pairs[-1][1][1]))
    for g, ends in (second[9], second[21]):
        assert circuit.closed_form(g) is not None
        for p, q in ends:
            pairs.append((invariants.A_pq(g, p, q), exact_crossing(g, transforms.identify_points(g, p, q), p, q)))
    assert len(pairs) > 60
    for got, (want, floor) in pairs:
        assert abs(Fraction(got) - want) <= Fraction(1e-7) * (want or floor), (got, float(want))
