import collections
import gc
import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from taulab import connectivity, identities, invariants, transforms
from taulab.errors import BadTolerance, NotApplicable, TauLabError, UnknownIdentityId
from taulab.fuzzing import (
    named_corpus,
    random_bridgeless_multigraph,
    random_connected_multigraph,
)
from taulab.graphs import MetrizedGraph, build_graph
from taulab.identities import identity_ids, verify, verify_all

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
PINNED_SKIP_TABLE_SHA256 = "b5c0b3815045310e2675d2ff92a4c88040812c7c0e662a748804239abd9ec505"


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
        for key, graph, _ in invariants.contraction_lattice(g)[1:]:
            exact = sum(Fraction(g.edges[i][2]) for i in key)
            assert leaf(graph) == float(exact), (g.edges, sorted(key))
            nodes += 1
    assert nodes > 1000, nodes


NESTED_IDS = ("SUCC_XY", "SUCC_TAU", "SUCC_R", "SUCC_Z", "BANANA_XY", "TAU_MAIN5", "W_ID", "AHM")


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
    # a bridge elsewhere in g, leaves it undefined.  The record glues its
    # crossings through G/e and DA(G/e); here they are A_pq of G - e and of
    # DA(G - e).  The 25 bridgeless graphs come first, then the fuzz
    # graphs, with loops and bridges.
    rng = random.Random(7070)
    graphs = []
    for _ in range(25):
        g = random_bridgeless_multigraph(rng, 6, 12)
        spread = 10.0 ** rng.uniform(2.0, 8.0)
        graphs.append(build_graph(g.vertex_count, [(a, b, spread ** rng.random()) for a, b, _ in g.edges]))

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
            assert record.looped_tau == invariants.graph_profile(transforms.identify_endpoints(g, i)).tau
            if i in g.bridges():
                undefined = (record.deleted, record.crossing, record.doubled_tau, record.doubled_crossing)
                assert undefined == (None,) * 4, (g.edges, i)
                seen["bridge"] += 1
                continue
            deleted = transforms.delete_edge(g, i)
            doubled = transforms.double_adjusted(deleted)
            assert record.deleted == scalars(deleted), (g.edges, i)
            if a == b:
                assert record.crossing == 0.0
                seen["loop"] += 1
            else:
                assert record.crossing == invariants.A_pq(deleted, a, b), (g.edges, i)
                seen["crossing"] += 1
            if not bridgeless:
                assert record.doubled_tau is None and record.doubled_crossing is None
                seen["in a bridged graph"] += 1
                continue
            assert record.doubled_tau == invariants.graph_profile(doubled).tau, (g.edges, i)
            assert record.doubled_crossing == (0.0 if a == b else invariants.A_pq(doubled, a, b)), (g.edges, i)
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
