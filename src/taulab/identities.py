"""The identity catalog: every equality and inequality this library can check.

Each entry evaluates a left-hand side and a right-hand side through separate
routes (direct invariant computation on one side, surgery followed by
invariant computation on the other) and reports a relative residual.  Nothing
here is allowed to raise on a numeric mismatch; a failed identity is a report
with pass=False, so a fuzzing run can keep going and collect every violation.

Conventions shared by all entries:

  * residuals are |lhs - rhs| / max(1, |lhs|, |rhs|), since the catalog mixes
    quantities of different homogeneity degrees;
  * inequalities carry a slack (rhs - lhs) / max(1, |lhs|, |rhs|) and pass
    when the slack is >= -tol; equalities contribute -residual as their
    slack so that a single number summarizes a mixed report;
  * an identity that does not apply to the given graph raises NotApplicable
    from verify(), and verify_many() and verify_all() turn that into a skipped
    report.

Self-loops and bridges never need special-casing at this level: the limit
conventions live in the invariant layer (a loop has resistance 0 and weight
pair (0, 1), a bridge has infinite resistance and weight pair (1, 0)), and
every identity below stays true under those limits.  The few places where a
formula would divide by a loop's zero resistance skip loops explicitly and
say so.  Per-edge resistances and arms are read from the profile's columns
(GraphProfile.columns), where a bridge's entries are NaN; the two per-edge
sums that run over bridges apply the bridge limit from the mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import cuts, invariants, transforms
from .errors import NotApplicable, UnknownIdentityId
from .graphs import MetrizedGraph

DEFAULT_TOL = 1e-9

# Cost cap for the nested contraction sums; past this the lattice of
# contraction sets gets too large to walk in reasonable time.
NESTED_VERTEX_CAP = 6

__all__ = [
    "DEFAULT_TOL",
    "NESTED_VERTEX_CAP",
    "IdentityReport",
    "identity_ids",
    "verify",
    "verify_all",
]


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking one identity on one graph.

    For multi-row identities (per-edge, per-depth, per-base) lhs and rhs
    belong to the worst row, checks counts the rows, and note says which row
    that was.  residual is None when the identity has no equality rows.
    """

    identity: str
    applicable: bool
    passed: bool
    lhs: float | None
    rhs: float | None
    residual: float | None
    slack: float | None
    checks: int
    note: str


# Surgeries repeat across identities on the same graph, so memoize them here.
# The underlying functions are pure and the graphs hash by value.
_contract = lru_cache(maxsize=16384)(transforms.contract_edge)
_delete = lru_cache(maxsize=16384)(transforms.delete_edge)
_loopify = lru_cache(maxsize=16384)(transforms.identify_endpoints)
_da = lru_cache(maxsize=8192)(transforms.double_adjusted)
_a_value = lru_cache(maxsize=16384)(invariants.A_pq)


def _prof(g: MetrizedGraph) -> invariants.GraphProfile:
    return invariants.graph_profile(g)


def _need_bridgeless(g: MetrizedGraph, ident: str) -> None:
    if not g.is_bridgeless():
        raise NotApplicable(ident, "requires a bridgeless graph")


def _need_vertices(g: MetrizedGraph, ident: str, count: int) -> None:
    if g.vertex_count < count:
        raise NotApplicable(ident, f"requires at least {count} vertices")


def _need_edges(g: MetrizedGraph, ident: str) -> None:
    if g.edge_count == 0:
        raise NotApplicable(ident, "needs at least one edge")


def _need_normalized(g: MetrizedGraph, ident: str) -> None:
    if abs(g.total_length - 1.0) > 1e-9:
        raise NotApplicable(ident, "requires total length 1 (normalize first)")


def _cap_nested(g: MetrizedGraph, ident: str) -> None:
    if g.vertex_count > NESTED_VERTEX_CAP:
        raise NotApplicable(
            ident, f"nested contraction sums are capped at {NESTED_VERTEX_CAP} vertices"
        )


def _deletable_edges(g: MetrizedGraph, ident: str) -> list[int]:
    """Edges whose deletion keeps the graph connected (loops included)."""
    bridges = g.bridges()
    ids = [i for i in range(g.edge_count) if i not in bridges]
    if not ids:
        raise NotApplicable(ident, "no edge keeps the graph connected when deleted")
    return ids


def _second_moment_terms(g: MetrizedGraph) -> list[float]:
    """L R^2/(L+R)^2 per edge; the bridge limit is L, loops give 0."""
    c = _prof(g).columns
    terms = []
    for (a, b, length), res, bridge in zip(g.edges, c.resistance.tolist(), c.bridge.tolist()):
        if a == b:
            terms.append(0.0)
        elif bridge:
            terms.append(length)
        else:
            den = length + res
            terms.append(length * res * res / (den * den))
    return terms


def _gap_terms(g: MetrizedGraph, base: int) -> list[float]:
    """L (Ra - Rb)^2/(L+R)^2 per edge at one base; bridge limit L, loops 0."""
    c = invariants.graph_profile(g, base).columns
    rows = zip(g.edges, c.resistance.tolist(), c.arm_first.tolist(), c.arm_second.tolist(), c.bridge.tolist())
    terms = []
    for (a, b, length), res, first, second, bridge in rows:
        if a == b:
            terms.append(0.0)
        elif bridge:
            terms.append(length)
        else:
            gap = first - second
            den = length + res
            terms.append(length * gap * gap / (den * den))
    return terms


# -- the registry entries --------------------------------------------------
#
# Each evaluator returns (rows, note) where a row is
# (label, kind, lhs, rhs) and kind is "eq" or "le" (meaning lhs <= rhs).


def _genus(g):
    prof = _prof(g)
    rows = [
        ("length weights sum to genus", "eq",
         math.fsum(prof.weight_length), float(g.genus)),
        ("resistance weights sum to v-1", "eq",
         math.fsum(prof.weight_resistance), float(g.vertex_count - 1)),
    ]
    return rows, "any graph"


def _tau_contract(g):
    _need_vertices(g, "TAU_CONTRACT", 3)
    prof = _prof(g)
    scale = g.vertex_count - 2
    contracted = _contraction_sum(g, lambda p: p.tau)
    # Same recursion with the edge kept as a loop instead of removed; the
    # correction term is then the whole length rather than z.
    looped = _contraction_sum(g, lambda p: p.tau, keep_loop=True)
    rows = [
        ("edge removed on contraction", "eq", prof.tau,
         contracted / scale - prof.z / (12.0 * scale)),
        ("edge kept as loop", "eq", prof.tau,
         looped / scale - prof.ell / (12.0 * scale)),
    ]
    return rows, "v >= 3"


def _tau_genus(g):
    _need_bridgeless(g, "TAU_GENUS")
    prof = _prof(g)
    scale = g.genus + 1
    deleted = _deletion_sum(g, lambda p: p.tau)
    rhs = deleted / scale + prof.ell / (6.0 * scale) - prof.r / (4.0 * scale)
    return [("deletion average", "eq", prof.tau, rhs)], "bridgeless"


def _tau_genus_lb(g):
    _need_bridgeless(g, "TAU_GENUS_LB")
    prof = _prof(g)
    bound = prof.ell / (6.0 * (g.genus + 1))
    return [("genus lower bound", "le", bound, prof.tau)], "bridgeless"


def _cont_del_tau(g):
    prof = _prof(g)
    resistances = prof.columns.resistance.tolist()
    rows = []
    for i in _deletable_edges(g, "CONT_DEL_TAU"):
        length, res = g.edges[i][2], resistances[i]
        rhs = (
            prof.weight_length[i] * _prof(_delete(g, i)).tau
            + prof.weight_resistance[i] * _prof(_contract(g, i)).tau
            + (length * length - length * res) / (12.0 * (length + res))
        )
        rows.append((f"edge {i}", "eq", prof.tau, rhs))
    return rows, "per edge with connected deletion"


def _da_tau(g):
    prof = _prof(g)
    doubled = _prof(_da(g)).tau
    rhs = prof.ell / 48.0 + prof.tau / 4.0 + prof.z / 24.0
    return [("doubled graph", "eq", doubled, rhs)], "any graph"


def _del_id_da(g):
    _need_bridgeless(g, "DEL_ID_DA")
    _need_edges(g, "DEL_ID_DA")
    prof = _prof(g)
    lhs = _prof(_da(g)).tau
    rows = []
    for i, ((a, b, length), res) in enumerate(zip(g.edges, prof.columns.resistance.tolist())):
        da_deleted = _da(_delete(g, i))
        # For a self-loop the two endpoints coincide and the crossing term
        # collapses to zero; the remaining terms reduce to the loop's L/12.
        across = 0.0 if a == b else _a_value(da_deleted, a, b)
        rhs = (
            _prof(da_deleted).tau
            + (2.0 * length * length - res * res) / (24.0 * (length + res))
            + 4.0 * across / (length + res)
        )
        rows.append((f"edge {i}", "eq", lhs, rhs))
    return rows, "bridgeless, per edge"


def _del_id_a(g):
    _need_bridgeless(g, "DEL_ID_A")
    _need_edges(g, "DEL_ID_A")
    prof = _prof(g)
    rows = []
    for i, ((a, b, length), res) in enumerate(zip(g.edges, prof.columns.resistance.tolist())):
        if a == b:
            lhs, rhs = 0.0, 0.0
        else:
            lhs = _a_value(_delete(g, i), a, b) / (length + res)
            across = _a_value(_da(_delete(g, i)), a, b)
            rhs = 16.0 * across / (length + res) - invariants.K_definition(g, i) / 6.0
        rows.append((f"edge {i}", "eq", lhs, rhs))
    return rows, "bridgeless, per edge"


def _k_nonneg(g):
    _need_bridgeless(g, "K_NONNEG")
    _need_edges(g, "K_NONNEG")
    rows = [
        (f"edge {i}", "le", 0.0, invariants.K_definition(g, i))
        for i in range(g.edge_count)
    ]
    return rows, "bridgeless, per edge"


def _k_contract(g):
    rows = [
        (f"edge {i}", "eq",
         invariants.K_definition(g, i), invariants.K_contraction_form(g, i))
        for i in _deletable_edges(g, "K_CONTRACT")
    ]
    return rows, "per edge with connected deletion"


def _cd_rows(g, ident, pick, own_term):
    """Shared shape of the per-edge contraction-deletion identities.

    pick reads the compared quantity off a profile, own_term gives the
    edge's direct contribution from its length and deleted-edge resistance.
    """
    prof = _prof(g)
    resistances = prof.columns.resistance.tolist()
    rows = []
    for i in _deletable_edges(g, ident):
        rhs = (
            own_term(g.edges[i][2], resistances[i])
            + prof.weight_length[i] * pick(_prof(_delete(g, i)))
            + prof.weight_resistance[i] * pick(_prof(_contract(g, i)))
        )
        rows.append((f"edge {i}", "eq", pick(prof), rhs))
    return rows, "per edge with connected deletion"


def _cd_x(g):
    return _cd_rows(g, "CD_X", lambda p: p.x, lambda L, R: L * R / (L + R))


def _cd_y(g):
    return _cd_rows(g, "CD_Y", lambda p: p.y, lambda L, R: 0.0)


def _cd_z(g):
    return _cd_rows(g, "CD_Z", lambda p: p.z, lambda L, R: L * L / (L + R))


def _cd_r(g):
    return _cd_rows(g, "CD_R", lambda p: p.r, lambda L, R: L * R / (L + R))


def _apq_contract(g):
    prof = _prof(g)
    diff = prof.x - prof.y
    resistances = prof.columns.resistance.tolist()
    rows = []
    for i in _deletable_edges(g, "APQ_CONTRACT"):
        a, b, length = g.edges[i]
        if a == b:
            continue  # the crossing term divides by the loop's zero resistance
        res = resistances[i]
        cprof = _prof(_contract(g, i))
        across = _a_value(_delete(g, i), a, b)
        rhs = (cprof.x - cprof.y) + 6.0 * length * across / (res * (length + res))
        rows.append((f"edge {i}", "eq", diff, rhs))
    if not rows:
        raise NotApplicable(
            "APQ_CONTRACT", "needs an edge that is neither a bridge nor a self-loop"
        )
    return rows, "per non-loop edge with connected deletion"


def _euler_z(g):
    _need_bridgeless(g, "EULER_Z")
    prof = _prof(g)
    through_k = []
    through_surgery = []
    direct = []
    for i, ((a, b, length), res) in enumerate(zip(g.edges, prof.columns.resistance.tolist())):
        den = length + res
        through_k.append(length * invariants.K_definition(g, i) / den)
        if a == b:
            through_surgery.append(0.0)
        else:
            through_surgery.append(
                (length * res / (den * den))
                * (_prof(_contract(g, i)).z - _prof(_delete(g, i)).z)
            )
        direct.append(length * length * res / (den * den))
    total = math.fsum(direct)
    rows = [
        ("via edge drop of z", "eq", math.fsum(through_k), total),
        ("via contraction minus deletion", "eq", math.fsum(through_surgery), total),
    ]
    return rows, "bridgeless, three expressions"


def _euler_xy(g):
    _need_bridgeless(g, "EULER_XY")
    prof = _prof(g)
    x_terms = []
    y_terms = []
    for i, ((a, b, length), res) in enumerate(zip(g.edges, prof.columns.resistance.tolist())):
        if a == b:
            continue  # weight L R/(L+R)^2 vanishes with R = 0
        den = length + res
        weight = length * res / (den * den)
        dprof = _prof(_delete(g, i))
        cprof = _prof(_contract(g, i))
        x_terms.append(weight * (dprof.x - cprof.x))
        y_terms.append(weight * (dprof.y - cprof.y))
    second = math.fsum(_second_moment_terms(g))
    rows = [
        ("x row", "eq", prof.x, second + math.fsum(x_terms)),
        ("y row", "eq", prof.y, math.fsum(y_terms)),
    ]
    return rows, "bridgeless"


def _contraction_sum(g, pick, keep_loop=False):
    """sum of R/(L+R) times pick of each contracted graph (or, with
    keep_loop, of the graph with the edge's endpoints glued instead)."""
    surgery = _loopify if keep_loop else _contract
    prof = _prof(g)
    return math.fsum(
        w * pick(_prof(surgery(g, i)))
        for i, w in enumerate(prof.weight_resistance)
        if w != 0.0
    )


def _deletion_sum(g, pick):
    prof = _prof(g)
    return math.fsum(
        w * pick(_prof(_delete(g, i)))
        for i, w in enumerate(prof.weight_length)
        if w != 0.0
    )


def _contr_rows(g, ident, pick, drop):
    """(v - drop) times a quantity against its weighted contractions, for v > drop."""
    _need_bridgeless(g, ident)
    _need_vertices(g, ident, drop + 1)
    lhs = (g.vertex_count - drop) * pick(_prof(g))
    rows = [("weighted contractions", "eq", lhs, _contraction_sum(g, pick))]
    return rows, f"bridgeless, v >= {drop + 1}"


def _contr_x(g):
    return _contr_rows(g, "CONTR_X", lambda p: p.x, 2)


def _contr_y(g):
    return _contr_rows(g, "CONTR_Y", lambda p: p.y, 2)


def _contr_z(g):
    return _contr_rows(g, "CONTR_Z", lambda p: p.z, 1)


def _contr_r(g):
    return _contr_rows(g, "CONTR_R", lambda p: p.r, 2)


def _del_rows(g, ident, pick, shift, extra=None):
    """(genus + shift) times a quantity against its weighted deletions,
    plus extra's term of g on the right when given."""
    _need_bridgeless(g, ident)
    prof = _prof(g)
    lhs = (g.genus + shift) * pick(prof)
    rhs = _deletion_sum(g, pick)
    if extra is not None:
        rhs = extra(prof) + rhs
    return [("weighted deletions", "eq", lhs, rhs)], "bridgeless"


def _del_x(g):
    return _del_rows(g, "DEL_X", lambda p: p.x, 0, extra=lambda p: p.y)


def _del_y(g):
    return _del_rows(g, "DEL_Y", lambda p: p.y, 1)


def _del_z(g):
    return _del_rows(g, "DEL_Z", lambda p: p.z, -1)


def _del_r(g):
    return _del_rows(g, "DEL_R", lambda p: p.r, 0)


def _tau_contr2(g):
    _need_bridgeless(g, "TAU_CONTR2")
    _need_vertices(g, "TAU_CONTR2", 3)
    prof = _prof(g)
    spread = _contraction_sum(g, lambda p: p.x - p.y)
    rhs = prof.ell / 12.0 - spread / (6.0 * (g.vertex_count - 2))
    return [("contraction form", "eq", prof.tau, rhs)], "bridgeless, v >= 3"


def _tau_del2(g):
    _need_bridgeless(g, "TAU_DEL2")
    if g.genus < 1:
        raise NotApplicable("TAU_DEL2", "requires genus at least 1")
    prof = _prof(g)
    genus = g.genus
    spread = _deletion_sum(g, lambda p: p.x - p.y)
    leftover = _deletion_sum(g, lambda p: p.r)
    rhs = (
        prof.ell / 12.0
        - spread / (6.0 * (genus + 1))
        - leftover / (6.0 * (genus + 1) * genus)
    )
    return [("deletion form", "eq", prof.tau, rhs)], "bridgeless, genus >= 1"


def _succ_xy(g):
    _need_bridgeless(g, "SUCC_XY")
    _need_vertices(g, "SUCC_XY", 3)
    _cap_nested(g, "SUCC_XY")
    prof = _prof(g)
    v = g.vertex_count
    depths = range(1, v - 1)
    sums = invariants.nested_weighted_sum(
        g, depths, lambda node: _prof(node.graph).x - _prof(node.graph).y
    )
    rows = []
    for k, nested in zip(depths, sums):
        lhs = math.factorial(v - 2) / math.factorial(v - k - 2) * (prof.x - prof.y)
        rows.append((f"depth {k}", "eq", lhs, nested))
    return rows, "bridgeless, depths 1 .. v-2"


def _succ_tau(g):
    _need_bridgeless(g, "SUCC_TAU")
    _need_vertices(g, "SUCC_TAU", 3)
    _cap_nested(g, "SUCC_TAU")
    prof = _prof(g)
    v = g.vertex_count
    depths = range(1, v - 1)
    sums = invariants.nested_weighted_sum(g, depths, lambda node: _prof(node.graph).tau)
    rows = []
    for k, nested in zip(depths, sums):
        rhs = (
            math.factorial(v - k - 2) / math.factorial(v - 2) * nested
            - k * prof.z / (12.0 * (v - k - 1))
        )
        rows.append((f"depth {k}", "eq", prof.tau, rhs))
    return rows, "bridgeless, depths 1 .. v-2"


def _succ_r(g):
    _need_bridgeless(g, "SUCC_R")
    _need_vertices(g, "SUCC_R", 3)
    _cap_nested(g, "SUCC_R")
    prof = _prof(g)
    v = g.vertex_count
    depths = range(1, v - 1)
    # The contracted lengths along a sequence are exactly what the leaf
    # graph lost, so the leaf value needs no bookkeeping of the path.
    sums = invariants.nested_weighted_sum(
        g, depths, lambda node: prof.ell - node.graph.total_length
    )
    rows = []
    for k, nested in zip(depths, sums):
        lhs = k * math.factorial(v - 2) / math.factorial(v - k - 1) * prof.r
        rows.append((f"depth {k}", "eq", lhs, nested))
    return rows, "bridgeless, depths 1 .. v-2"


def _succ_r_bounds(g):
    _need_bridgeless(g, "SUCC_R_BOUNDS")
    _need_vertices(g, "SUCC_R_BOUNDS", 3)
    prof = _prof(g)
    v = g.vertex_count
    lengths = sorted(length for _, _, length in g.edges)
    rows = []
    for k in range(1, v - 1):
        small = math.fsum(lengths[:k])
        large = math.fsum(lengths[-k:])
        rows.append((f"lower, {k} shortest", "le", (v - 1) * small / k, prof.r))
        rows.append((f"upper, {k} longest", "le", prof.r, (v - 1) * large / k))
    return rows, "bridgeless, subset sums for depths 1 .. v-2"


def _succ_z(g):
    _need_bridgeless(g, "SUCC_Z")
    _need_vertices(g, "SUCC_Z", 3)
    _cap_nested(g, "SUCC_Z")
    prof = _prof(g)
    v = g.vertex_count
    depths = range(1, v - 1)
    sums = invariants.nested_weighted_sum(g, depths, lambda node: _prof(node.graph).z)
    rows = []
    for k, nested in zip(depths, sums):
        lhs = math.factorial(v - 1) / math.factorial(v - k - 1) * prof.z
        rows.append((f"depth {k}", "eq", lhs, nested))
    return rows, "bridgeless, depths 1 .. v-2"


def _leaf_tag(key) -> str:
    return "{" + ",".join(str(i) for i in sorted(key)) + "}"


def _banana_xy(g):
    _need_bridgeless(g, "BANANA_XY")
    _need_vertices(g, "BANANA_XY", 2)
    _cap_nested(g, "BANANA_XY")
    rows = []
    for key, node in invariants.admissible_leaf_nodes(g):
        count, harmonic = invariants.banana_stats(node.graph)
        leaf = _prof(node.graph)
        tag = _leaf_tag(key)
        rows.append((f"x at {tag}", "eq", leaf.x, (count - 1) * harmonic))
        rows.append((f"y at {tag}", "eq", leaf.y, harmonic))
    return rows, "bridgeless, every full contraction"


def _tau_main5(g):
    _need_bridgeless(g, "TAU_MAIN5")
    _need_vertices(g, "TAU_MAIN5", 3)
    _cap_nested(g, "TAU_MAIN5")
    prof = _prof(g)
    depth = g.vertex_count - 2

    def leaf(node):
        count, harmonic = invariants.banana_stats(node.graph)
        return (count - 2) * harmonic

    nested = invariants.nested_weighted_sum(g, [depth], leaf)[0]
    rhs = prof.ell / 12.0 - nested / (6.0 * math.factorial(depth))
    return [("full-depth contraction", "eq", prof.tau, rhs)], "bridgeless, v >= 3"


def _w_id(g):
    _need_bridgeless(g, "W_ID")
    _need_vertices(g, "W_ID", 2)
    _cap_nested(g, "W_ID")
    prof = _prof(g)
    lhs = (g.vertex_count - 1) * prof.z
    rhs = invariants.w_nested(g) + prof.x
    return [("nested w plus x", "eq", lhs, rhs)], "bridgeless, nested w"


def _z_x_bound(g):
    _need_bridgeless(g, "Z_X_BOUND")
    _need_vertices(g, "Z_X_BOUND", 2)
    prof = _prof(g)
    lam = cuts.edge_connectivity(g)
    bound = lam * prof.x / (g.vertex_count - 1)
    return [("connectivity-scaled x", "le", bound, prof.z)], "bridgeless, v >= 2"


def _ahm(g):
    _need_bridgeless(g, "AHM")
    _need_vertices(g, "AHM", 2)
    _cap_nested(g, "AHM")
    rows = []
    for key, node in invariants.admissible_leaf_nodes(g):
        count, harmonic = invariants.banana_stats(node.graph)
        resistances = _prof(node.graph).columns.resistance.tolist()
        parallel_z = math.fsum(
            length * length / (length + res)
            for (a, b, length), res in zip(node.graph.edges, resistances)
            if a != b
        )
        rows.append(
            (f"leaf {_leaf_tag(key)}", "le", count * (count - 1) * harmonic, parallel_z)
        )
    return rows, "bridgeless, every full contraction"


def _norm2term(g):
    _need_normalized(g, "NORM2TERM")
    prof = _prof(g)
    second = math.fsum(_second_moment_terms(g))
    return [("squared first moment", "le", prof.r * prof.r, second)], "normalized"


def _val_partition(g):
    v = g.vertex_count
    second = math.fsum(_second_moment_terms(g))
    gap_by_base = [_gap_terms(g, p) for p in range(v)]
    away = []
    for q in range(v):
        away.append(math.fsum(
            gap_by_base[q][i]
            for i, (a, b, _) in enumerate(g.edges)
            if a != q and b != q
        ))
    shared = 2.0 * second / v + math.fsum(away) / v
    rows = [
        (f"base {p}", "eq", math.fsum(gap_by_base[p]), shared)
        for p in range(v)
    ]
    return rows, "any graph, one row per base vertex"


def _edgecon11(g):
    _need_normalized(g, "EDGECON11")
    _need_bridgeless(g, "EDGECON11")
    _need_vertices(g, "EDGECON11", 2)
    prof = _prof(g)
    v = g.vertex_count
    lam = cuts.edge_connectivity(g)
    x, y = prof.x, prof.y
    rows = [
        ("tau from x and y", "eq", prof.tau, 1.0 / 12.0 - x / 6.0 + y / 6.0),
        ("weighted sum below one", "le", (lam + v - 1) / (v - 1) * x + y, 1.0),
        ("x nonnegative", "le", 0.0, x),
        ("y nonnegative", "le", 0.0, y),
        ("parabola below y", "le", (v + 6) / (4.0 * v) * (x + y) ** 2, y),
        ("x below genus times y", "le", x, g.genus * y),
        ("x above connectivity floor", "le", (lam - 1) * y, x),
    ]
    return rows, "normalized bridgeless, v >= 2"


_REGISTRY = {
    "GENUS": _genus,
    "TAU_CONTRACT": _tau_contract,
    "TAU_GENUS": _tau_genus,
    "TAU_GENUS_LB": _tau_genus_lb,
    "CONT_DEL_TAU": _cont_del_tau,
    "DA_TAU": _da_tau,
    "DEL_ID_DA": _del_id_da,
    "DEL_ID_A": _del_id_a,
    "K_NONNEG": _k_nonneg,
    "K_CONTRACT": _k_contract,
    "CD_X": _cd_x,
    "CD_Y": _cd_y,
    "CD_Z": _cd_z,
    "CD_R": _cd_r,
    "APQ_CONTRACT": _apq_contract,
    "EULER_Z": _euler_z,
    "EULER_XY": _euler_xy,
    "CONTR_X": _contr_x,
    "CONTR_Y": _contr_y,
    "CONTR_Z": _contr_z,
    "CONTR_R": _contr_r,
    "DEL_X": _del_x,
    "DEL_Y": _del_y,
    "DEL_Z": _del_z,
    "DEL_R": _del_r,
    "TAU_CONTR2": _tau_contr2,
    "TAU_DEL2": _tau_del2,
    "SUCC_XY": _succ_xy,
    "SUCC_TAU": _succ_tau,
    "SUCC_R": _succ_r,
    "SUCC_R_BOUNDS": _succ_r_bounds,
    "SUCC_Z": _succ_z,
    "BANANA_XY": _banana_xy,
    "TAU_MAIN5": _tau_main5,
    "W_ID": _w_id,
    "Z_X_BOUND": _z_x_bound,
    "AHM": _ahm,
    "NORM2TERM": _norm2term,
    "VAL_PARTITION": _val_partition,
    "EDGECON11": _edgecon11,
}


def identity_ids() -> tuple[str, ...]:
    """All identity identifiers, in catalog order."""
    return tuple(_REGISTRY)


def _row_slack(kind: str, lhs: float, rhs: float) -> float:
    den = max(1.0, abs(lhs), abs(rhs))
    if kind == "eq":
        return -abs(lhs - rhs) / den
    return (rhs - lhs) / den


def _build_report(identity: str, rows, note: str, tol: float) -> IdentityReport:
    # Plain floats and bools throughout: evaluators may hand back numpy
    # scalars, which would otherwise leak into JSON serialization.
    slacks = [float(_row_slack(kind, lhs, rhs)) for _, kind, lhs, rhs in rows]
    worst = min(range(len(rows)), key=lambda i: slacks[i])
    worst_label, _, worst_lhs, worst_rhs = rows[worst]
    residuals = [-s for (_, kind, _, _), s in zip(rows, slacks) if kind == "eq"]
    if len(rows) > 1:
        note = f"{note}; worst: {worst_label}"
    return IdentityReport(
        identity=identity,
        applicable=True,
        passed=bool(min(slacks) >= -tol),
        lhs=float(worst_lhs),
        rhs=float(worst_rhs),
        residual=max(residuals) if residuals else None,
        slack=min(slacks),
        checks=len(rows),
        note=note,
    )


def verify(g: MetrizedGraph, identity_id: str, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Check one identity on one graph.

    Raises NotApplicable when the graph does not meet the identity's
    preconditions; numeric disagreement never raises, it comes back as a
    report with passed=False.
    """
    try:
        evaluator = _REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentityId(f"unknown identity id: {identity_id!r}") from None
    rows, note = evaluator(g)
    return _build_report(identity_id, rows, note, tol)


def verify_many(g: MetrizedGraph, ids: Iterable[str], tol: float = DEFAULT_TOL) -> list[IdentityReport]:
    """Check the given identities in order; those that do not apply become skip reports.

    Raises UnknownIdentityId, from verify(), at the first id not in the catalog.
    """
    reports = []
    for ident in ids:
        try:
            reports.append(verify(g, ident, tol))
        except NotApplicable as exc:
            reports.append(IdentityReport(
                identity=ident,
                applicable=False,
                passed=True,
                lhs=None,
                rhs=None,
                residual=None,
                slack=None,
                checks=0,
                note=str(exc.reason),
            ))
    return reports


def verify_all(g: MetrizedGraph, tol: float = DEFAULT_TOL) -> list[IdentityReport]:
    """Run the whole catalog; identities that do not apply become skip reports."""
    return verify_many(g, _REGISTRY, tol)
