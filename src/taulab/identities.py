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
  * each registry entry pairs an evaluator with its identity's hypotheses
    (bridgeless, enough vertices, total length 1, ...) as a tuple of
    preconditions.  verify() checks them in their listed order before the
    evaluator runs and raises NotApplicable with the reason of the first that
    fails, so a skipped identity computes nothing; verify_many() and
    verify_all() turn that into a skipped report.  Evaluators only build rows.

Self-loops and bridges never need special-casing at this level: the limit
conventions live in the invariant layer (a loop has resistance 0 and weight
pair (0, 1), a bridge has infinite resistance and weight pair (1, 0)), and
every identity below stays true under those limits.  The few places where a
formula would divide by a loop's zero resistance skip loops explicitly and
say so.  Per-edge resistances, arms and weights are read from the profile,
NaN at bridges: Python floats, or on the closed-form route float64 array
entries, which round as Python floats do and which _build_report casts.
The per-edge squared terms, which run over bridges, take the bridge limit
at g.bridges().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable

from . import cuts, invariants
from .errors import BadTolerance, NotApplicable, UnknownIdentityId
from .graphs import MetrizedGraph
# Bound here for perfbench/tracing.py, which reads the surgery memos'
# cache_info() under these names; no evaluator calls them.
from .invariants import _contract, _da, _delete, _loopify  # noqa: F401

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "NESTED_VERTEX_CAP",
    "IdentityReport",
    "checked_tol",
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


# Every surgery value is read from its edge's record (invariants.edge_record),
# which keeps floats only in the graph's memo and frees the surgery graphs
# once it is built; tau of DA(G) comes from invariants.doubled_tau the same
# way.  So no evaluator builds or holds a graph.
_prof = invariants.graph_profile
_record = invariants.edge_record


def _deletable_edges(g: MetrizedGraph) -> list[int]:
    """Edges whose deletion keeps the graph connected (loops included)."""
    bridges = g.bridges()
    return [i for i in range(g.edge_count) if i not in bridges]


# -- preconditions -----------------------------------------------------------
#
# Each returns None when the graph meets it, else the reason it does not.


def _bridgeless(g):
    return None if g.is_bridgeless() else "requires a bridgeless graph"


def _vertices(count):
    def check(g):
        return None if g.vertex_count >= count else f"requires at least {count} vertices"
    return check


def _some_edge(g):
    return None if g.edge_count else "needs at least one edge"


def _normalized(g):
    return None if abs(g.total_length - 1.0) <= 1e-9 else "requires total length 1 (normalize first)"


# The nested rows stop here for accuracy, not cost: their sums scale by up
# to (v - 2)!, against a residual floor of 1.  Uncapped, SUCC_XY on
# random-length cycles left residuals of 2e-13 at 7 vertices, 1.6e-11 at 9
# and 3.1e-7 at 12, where 6 of 6 failed.
NESTED_VERTEX_CAP = 6


def _nested_cap(g):
    if g.vertex_count <= NESTED_VERTEX_CAP:
        return None
    return f"nested contraction sums are capped at {NESTED_VERTEX_CAP} vertices"


_lattice_cap = invariants.lattice_refusal


def _positive_genus(g):
    return None if g.genus >= 1 else "requires genus at least 1"


def _deletable_edge(g):
    return None if _deletable_edges(g) else "no edge keeps the graph connected when deleted"


def _deletable_non_loop(g):
    if any(g.edges[i][0] != g.edges[i][1] for i in _deletable_edges(g)):
        return None
    return "needs an edge that is neither a bridge nor a self-loop"


# -- shared sums ---------------------------------------------------------------


def _squared_terms(g: MetrizedGraph, resistances, spreads) -> list[float]:
    """L s^2/(L+R)^2 per edge for its entry s of spreads; bridge limit L, loops 0."""
    bridges = g.bridges()
    terms = []
    for i, ((a, b, length), spread, res) in enumerate(zip(g.edges, spreads, resistances)):
        if a == b:
            terms.append(0.0)
        elif i in bridges:
            terms.append(length)
        else:
            den = length + res
            terms.append(length * spread * spread / (den * den))
    return terms


def _second_moment(g: MetrizedGraph) -> float:
    """sum of L R^2/(L+R)^2."""
    resistances = _prof(g).columns.resistance
    return math.fsum(_squared_terms(g, resistances, resistances))


def _gap_terms(g: MetrizedGraph, base: int) -> list[float]:
    """L (Ra - Rb)^2/(L+R)^2 per edge at one base."""
    c = invariants.graph_profile(g, base).columns
    return _squared_terms(g, c.resistance, [f - s for f, s in zip(c.arm_first, c.arm_second)])


def _weighted_sum(g: MetrizedGraph, weights, pick) -> float:
    """sum of each edge's weight times pick of its record; edges of weight 0
    are skipped, record and all."""
    return math.fsum(w * pick(_record(g, i)) for i, w in enumerate(weights) if w != 0.0)


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
    prof = _prof(g)
    scale = g.vertex_count - 2
    contracted = _weighted_sum(g, prof.weight_resistance, lambda e: e.contracted.tau)
    # Same recursion with the edge kept as a loop instead of removed; the
    # correction term is then the whole length rather than z.
    looped = _weighted_sum(g, prof.weight_resistance, lambda e: e.looped_tau)
    rows = [
        ("edge removed on contraction", "eq", prof.tau,
         contracted / scale - prof.z / (12.0 * scale)),
        ("edge kept as loop", "eq", prof.tau,
         looped / scale - prof.ell / (12.0 * scale)),
    ]
    return rows, "v >= 3"


def _tau_genus(g):
    prof = _prof(g)
    scale = g.genus + 1
    deleted = _weighted_sum(g, prof.weight_length, lambda e: e.deleted.tau)
    rhs = deleted / scale + prof.ell / (6.0 * scale) - prof.r / (4.0 * scale)
    return [("deletion average", "eq", prof.tau, rhs)], "bridgeless"


def _tau_genus_lb(g):
    prof = _prof(g)
    bound = prof.ell / (6.0 * (g.genus + 1))
    return [("genus lower bound", "le", bound, prof.tau)], "bridgeless"


def _cont_del_tau(g):
    prof = _prof(g)
    resistances = prof.columns.resistance
    rows = []
    for i in _deletable_edges(g):
        length, res, record = g.edges[i][2], resistances[i], _record(g, i)
        rhs = (
            prof.weight_length[i] * record.deleted.tau
            + prof.weight_resistance[i] * record.contracted.tau
            + (length * length - length * res) / (12.0 * (length + res))
        )
        rows.append((f"edge {i}", "eq", prof.tau, rhs))
    return rows, "per edge with connected deletion"


def _da_tau(g):
    prof = _prof(g)
    rhs = prof.ell / 48.0 + prof.tau / 4.0 + prof.z / 24.0
    return [("doubled graph", "eq", invariants.doubled_tau(g), rhs)], "any graph"


def _del_id_da(g):
    prof = _prof(g)
    lhs = invariants.doubled_tau(g)
    rows = []
    for i, ((_, _, length), res) in enumerate(zip(g.edges, prof.columns.resistance)):
        # For a self-loop the two endpoints coincide and the record's crossing
        # is zero; the remaining terms reduce to the loop's L/12.
        record = _record(g, i)
        rhs = (
            record.doubled_tau
            + (2.0 * length * length - res * res) / (24.0 * (length + res))
            + 4.0 * record.doubled_crossing / (length + res)
        )
        rows.append((f"edge {i}", "eq", lhs, rhs))
    return rows, "bridgeless, per edge"


def _del_id_a(g):
    prof = _prof(g)
    rows = []
    for i, ((_, _, length), res) in enumerate(zip(g.edges, prof.columns.resistance)):
        # At a self-loop both crossings, R and K are 0, so both sides are 0.0.
        record = _record(g, i)
        lhs = record.crossing / (length + res)
        rhs = 16.0 * record.doubled_crossing / (length + res) - invariants.K_definition(g, i) / 6.0
        rows.append((f"edge {i}", "eq", lhs, rhs))
    return rows, "bridgeless, per edge"


def _k_nonneg(g):
    rows = [
        (f"edge {i}", "le", 0.0, invariants.K_definition(g, i))
        for i in range(g.edge_count)
    ]
    return rows, "bridgeless, per edge"


def _k_contract(g):
    rows = [
        (f"edge {i}", "eq",
         invariants.K_definition(g, i), invariants.K_contraction_form(g, i))
        for i in _deletable_edges(g)
    ]
    return rows, "per edge with connected deletion"


def _cd_rows(g, pick, own):
    """Shared shape of the per-edge contraction-deletion identities.

    pick reads the compared quantity off a profile or a record's Scalars,
    own gives the edge's direct contribution from its length and
    deleted-edge resistance.
    """
    prof = _prof(g)
    resistances = prof.columns.resistance
    rows = []
    for i in _deletable_edges(g):
        record = _record(g, i)
        rhs = (
            own(g.edges[i][2], resistances[i])
            + prof.weight_length[i] * pick(record.deleted)
            + prof.weight_resistance[i] * pick(record.contracted)
        )
        rows.append((f"edge {i}", "eq", pick(prof), rhs))
    return rows, "per edge with connected deletion"


def _apq_contract(g):
    prof = _prof(g)
    diff = prof.x - prof.y
    resistances = prof.columns.resistance
    rows = []
    for i in _deletable_edges(g):
        a, b, length = g.edges[i]
        if a == b:
            continue  # the crossing term divides by the loop's zero resistance
        res, record = resistances[i], _record(g, i)
        spread = record.contracted.x - record.contracted.y
        rhs = spread + 6.0 * length * record.crossing / (res * (length + res))
        rows.append((f"edge {i}", "eq", diff, rhs))
    return rows, "per non-loop edge with connected deletion"


def _euler_z(g):
    prof = _prof(g)
    through_k = []
    through_surgery = []
    direct = []
    for i, ((a, b, length), res) in enumerate(zip(g.edges, prof.columns.resistance)):
        den = length + res
        through_k.append(length * invariants.K_definition(g, i) / den)
        if a == b:
            through_surgery.append(0.0)
        else:
            record = _record(g, i)
            through_surgery.append((length * res / (den * den)) * (record.contracted.z - record.deleted.z))
        direct.append(length * length * res / (den * den))
    total = math.fsum(direct)
    rows = [
        ("via edge drop of z", "eq", math.fsum(through_k), total),
        ("via contraction minus deletion", "eq", math.fsum(through_surgery), total),
    ]
    return rows, "bridgeless, three expressions"


def _euler_xy(g):
    prof = _prof(g)
    x_terms = []
    y_terms = []
    for i, ((a, b, length), res) in enumerate(zip(g.edges, prof.columns.resistance)):
        if a == b:
            continue  # weight L R/(L+R)^2 vanishes with R = 0
        den = length + res
        weight = length * res / (den * den)
        record = _record(g, i)
        x_terms.append(weight * (record.deleted.x - record.contracted.x))
        y_terms.append(weight * (record.deleted.y - record.contracted.y))
    second = _second_moment(g)
    rows = [
        ("x row", "eq", prof.x, second + math.fsum(x_terms)),
        ("y row", "eq", prof.y, math.fsum(y_terms)),
    ]
    return rows, "bridgeless"


def _contr_rows(g, pick, drop):
    """(v - drop) times a quantity against its weighted contractions, for v > drop."""
    prof = _prof(g)
    lhs = (g.vertex_count - drop) * pick(prof)
    rhs = _weighted_sum(g, prof.weight_resistance, lambda e: pick(e.contracted))
    return [("weighted contractions", "eq", lhs, rhs)], f"bridgeless, v >= {drop + 1}"


def _del_rows(g, pick, shift, extra=None):
    """(genus + shift) times a quantity against its weighted deletions,
    plus extra's term of g on the right when given."""
    prof = _prof(g)
    lhs = (g.genus + shift) * pick(prof)
    rhs = _weighted_sum(g, prof.weight_length, lambda e: pick(e.deleted))
    if extra is not None:
        rhs = extra(prof) + rhs
    return [("weighted deletions", "eq", lhs, rhs)], "bridgeless"


def _tau_contr2(g):
    prof = _prof(g)
    spread = _weighted_sum(g, prof.weight_resistance, lambda e: e.contracted.x - e.contracted.y)
    rhs = prof.ell / 12.0 - spread / (6.0 * (g.vertex_count - 2))
    return [("contraction form", "eq", prof.tau, rhs)], "bridgeless, v >= 3"


def _tau_del2(g):
    prof = _prof(g)
    genus = g.genus
    spread = _weighted_sum(g, prof.weight_length, lambda e: e.deleted.x - e.deleted.y)
    leftover = _weighted_sum(g, prof.weight_length, lambda e: e.deleted.r)
    rhs = (
        prof.ell / 12.0
        - spread / (6.0 * (genus + 1))
        - leftover / (6.0 * (genus + 1) * genus)
    )
    return [("deletion form", "eq", prof.tau, rhs)], "bridgeless, genus >= 1"


def _succ_rows(g, leaf, sides):
    """One row per contraction depth k in 1 .. v-2: sides(prof, v, k, nested)
    gives the row's (lhs, rhs), where prof is the profile of g and nested the
    weighted sum of leaf(core, loops) over the depth-k contraction sequences,
    each final graph given as its lattice node's core and loop lengths."""
    prof = _prof(g)
    v = g.vertex_count
    depths = range(1, v - 1)
    sums = invariants.nested_weighted_sum(g, depths, leaf)
    rows = [(f"depth {k}", "eq", *sides(prof, v, k, nested)) for k, nested in zip(depths, sums)]
    return rows, "bridgeless, depths 1 .. v-2"


def _succ_xy(g):
    def sides(prof, v, k, nested):
        lhs = math.factorial(v - 2) / math.factorial(v - k - 2) * (prof.x - prof.y)
        return lhs, nested

    return _succ_rows(g, lambda core, loops: _prof(core).x - _prof(core).y, sides)


def _succ_tau(g):
    def sides(prof, v, k, nested):
        rhs = (
            math.factorial(v - k - 2) / math.factorial(v - 2) * nested
            - k * prof.z / (12.0 * (v - k - 1))
        )
        return prof.tau, rhs

    return _succ_rows(g, invariants.node_tau, sides)


def _succ_r(g):
    def sides(prof, v, k, nested):
        lhs = k * math.factorial(v - 2) / math.factorial(v - k - 1) * prof.r
        return lhs, nested

    # The contracted lengths along a sequence are exactly what the leaf
    # graph lost, so the leaf value needs no bookkeeping of the path.  One
    # fsum over g's lengths and the negated leaf's, core and loops, is
    # their exact sum, rounded once; a difference of two rounded totals
    # would drown the short contracted edges beside long kept ones.
    lengths = [length for _, _, length in g.edges]
    return _succ_rows(g, lambda core, loops: math.fsum(lengths + [-L for _, _, L in core.edges] + [-L for L in loops]), sides)


def _succ_z(g):
    def sides(prof, v, k, nested):
        lhs = math.factorial(v - 1) / math.factorial(v - k - 1) * prof.z
        return lhs, nested

    return _succ_rows(g, invariants.node_z, sides)


def _succ_r_bounds(g):
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


def _leaf_tag(key) -> str:
    return "{" + ",".join(str(i) for i in sorted(key)) + "}"


def _banana_xy(g):
    rows = []
    for key, core, _ in invariants.admissible_leaf_nodes(g):
        count, harmonic = invariants.banana_stats(core)
        leaf = _prof(core)
        tag = _leaf_tag(key)
        rows.append((f"x at {tag}", "eq", leaf.x, (count - 1) * harmonic))
        rows.append((f"y at {tag}", "eq", leaf.y, harmonic))
    return rows, "bridgeless, every full contraction"


def _tau_main5(g):
    prof = _prof(g)
    depth = g.vertex_count - 2

    def leaf(core, loops):
        count, harmonic = invariants.banana_stats(core)
        return (count - 2) * harmonic

    nested = invariants.nested_weighted_sum(g, [depth], leaf)[0]
    rhs = prof.ell / 12.0 - nested / (6.0 * math.factorial(depth))
    return [("full-depth contraction", "eq", prof.tau, rhs)], "bridgeless, v >= 3"


def _w_id(g):
    prof = _prof(g)
    lhs = (g.vertex_count - 1) * prof.z
    rhs = invariants.w_nested(g) + prof.x
    return [("nested w plus x", "eq", lhs, rhs)], "bridgeless, nested w"


def _z_x_bound(g):
    prof = _prof(g)
    lam = cuts.edge_connectivity(g)
    bound = lam * prof.x / (g.vertex_count - 1)
    return [("connectivity-scaled x", "le", bound, prof.z)], "bridgeless, v >= 2"


def _ahm(g):
    rows = []
    for key, core, _ in invariants.admissible_leaf_nodes(g):
        count, harmonic = invariants.banana_stats(core)
        # The parallel class's z is the loopless core's, the fsum of its z_terms.
        rows.append((f"leaf {_leaf_tag(key)}", "le", count * (count - 1) * harmonic, _prof(core).z))
    return rows, "bridgeless, every full contraction"


def _norm2term(g):
    prof = _prof(g)
    return [("squared first moment", "le", prof.r * prof.r, _second_moment(g))], "normalized"


def _val_partition(g):
    v = g.vertex_count
    second = _second_moment(g)
    gap_by_base = [_gap_terms(g, p) for p in range(v)]
    away = [
        math.fsum(gap[i] for i, (a, b, _) in enumerate(g.edges) if a != q and b != q)
        for q, gap in enumerate(gap_by_base)
    ]
    shared = 2.0 * second / v + math.fsum(away) / v
    rows = [
        (f"base {p}", "eq", math.fsum(gap_by_base[p]), shared)
        for p in range(v)
    ]
    return rows, "any graph, one row per base vertex"


def _edgecon11(g):
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


# Each identity id maps to (evaluator, preconditions).  The records build
# their surgeries through invariants' surgery memos (_loopify no longer
# builds any), looked up as module
# globals when a record is built, so a rebinding (as perfbench/tracing.py
# does for its spans, under every name bound to them) takes effect; the
# names stay bound here too, where the tracer reads their cache_info().
_REGISTRY = {
    "GENUS": (_genus, ()),
    "TAU_CONTRACT": (_tau_contract, (_vertices(3),)),
    "TAU_GENUS": (_tau_genus, (_bridgeless,)),
    "TAU_GENUS_LB": (_tau_genus_lb, (_bridgeless,)),
    "CONT_DEL_TAU": (_cont_del_tau, (_deletable_edge,)),
    "DA_TAU": (_da_tau, ()),
    "DEL_ID_DA": (_del_id_da, (_bridgeless, _some_edge)),
    "DEL_ID_A": (_del_id_a, (_bridgeless, _some_edge)),
    "K_NONNEG": (_k_nonneg, (_bridgeless, _some_edge)),
    "K_CONTRACT": (_k_contract, (_deletable_edge,)),
    "CD_X": (partial(_cd_rows, pick=lambda p: p.x, own=lambda L, R: L * R / (L + R)), (_deletable_edge,)),
    "CD_Y": (partial(_cd_rows, pick=lambda p: p.y, own=lambda L, R: 0.0), (_deletable_edge,)),
    "CD_Z": (partial(_cd_rows, pick=lambda p: p.z, own=lambda L, R: L * L / (L + R)), (_deletable_edge,)),
    "CD_R": (partial(_cd_rows, pick=lambda p: p.r, own=lambda L, R: L * R / (L + R)), (_deletable_edge,)),
    "APQ_CONTRACT": (_apq_contract, (_deletable_edge, _deletable_non_loop)),
    "EULER_Z": (_euler_z, (_bridgeless,)),
    "EULER_XY": (_euler_xy, (_bridgeless,)),
    "CONTR_X": (partial(_contr_rows, pick=lambda p: p.x, drop=2), (_bridgeless, _vertices(3))),
    "CONTR_Y": (partial(_contr_rows, pick=lambda p: p.y, drop=2), (_bridgeless, _vertices(3))),
    "CONTR_Z": (partial(_contr_rows, pick=lambda p: p.z, drop=1), (_bridgeless, _vertices(2))),
    "CONTR_R": (partial(_contr_rows, pick=lambda p: p.r, drop=2), (_bridgeless, _vertices(3))),
    "DEL_X": (partial(_del_rows, pick=lambda p: p.x, shift=0, extra=lambda p: p.y), (_bridgeless,)),
    "DEL_Y": (partial(_del_rows, pick=lambda p: p.y, shift=1), (_bridgeless,)),
    "DEL_Z": (partial(_del_rows, pick=lambda p: p.z, shift=-1), (_bridgeless,)),
    "DEL_R": (partial(_del_rows, pick=lambda p: p.r, shift=0), (_bridgeless,)),
    "TAU_CONTR2": (_tau_contr2, (_bridgeless, _vertices(3))),
    "TAU_DEL2": (_tau_del2, (_bridgeless, _positive_genus)),
    "SUCC_XY": (_succ_xy, (_bridgeless, _vertices(3), _nested_cap, _lattice_cap)),
    "SUCC_TAU": (_succ_tau, (_bridgeless, _vertices(3), _nested_cap, _lattice_cap)),
    "SUCC_R": (_succ_r, (_bridgeless, _vertices(3), _nested_cap, _lattice_cap)),
    "SUCC_R_BOUNDS": (_succ_r_bounds, (_bridgeless, _vertices(3))),
    "SUCC_Z": (_succ_z, (_bridgeless, _vertices(3), _nested_cap, _lattice_cap)),
    "BANANA_XY": (_banana_xy, (_bridgeless, _vertices(2), _nested_cap, _lattice_cap)),
    "TAU_MAIN5": (_tau_main5, (_bridgeless, _vertices(3), _nested_cap, _lattice_cap)),
    "W_ID": (_w_id, (_bridgeless, _vertices(2), _nested_cap, _lattice_cap)),
    "Z_X_BOUND": (_z_x_bound, (_bridgeless, _vertices(2))),
    "AHM": (_ahm, (_bridgeless, _vertices(2), _nested_cap, _lattice_cap)),
    "NORM2TERM": (_norm2term, (_normalized,)),
    "VAL_PARTITION": (_val_partition, ()),
    "EDGECON11": (_edgecon11, (_normalized, _bridgeless, _vertices(2))),
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
    # Plain floats and bools throughout: the report is the JSON boundary,
    # so its numbers are cast here, whatever type an evaluator's row holds.
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


def checked_tol(tol, source: str = "tol") -> float:
    """tol, if it is a finite number >= 0; else BadTolerance.

    NaN would pass every check and a negative tolerance fail every one.
    """
    try:
        usable = math.isfinite(tol) and tol >= 0.0
    except TypeError:
        usable = False
    if not usable:
        raise BadTolerance(f"{source}={tol!r} must be a finite number >= 0")
    return tol


def verify(g: MetrizedGraph, identity_id: str, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Check one identity on one graph.

    Raises BadTolerance unless tol is a finite number >= 0, then
    NotApplicable, before any evaluation, at the first of the identity's
    preconditions that the graph does not meet; numeric disagreement never
    raises, it comes back as a report with passed=False.
    """
    checked_tol(tol)
    try:
        evaluator, preconditions = _REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentityId(f"unknown identity id: {identity_id!r}") from None
    for precondition in preconditions:
        reason = precondition(g)
        if reason is not None:
            raise NotApplicable(identity_id, reason)
    rows, note = evaluator(g)
    return _build_report(identity_id, rows, note, tol)


def verify_many(g: MetrizedGraph, ids: Iterable[str], tol: float = DEFAULT_TOL) -> list[IdentityReport]:
    """Check the given identities in order; those that do not apply become skip reports.

    Raises, from verify(), BadTolerance for a bad tol and UnknownIdentityId at
    the first id not in the catalog.
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
