"""Command line surface: parse graph files, run checks, emit JSON reports.

The graph file format is one directive per line:

    graph <vertex_count>
    edge <u> <w> <length>

with 0-based vertex indices, '#' comments, and blank lines ignored.  Lengths
serialize through repr() so a write/read cycle is bit-exact.

Reports are JSON with sorted keys and no timestamps: the same input (and
seed, where one applies) must produce the same bytes.  Exit codes: 0 all
checks pass, 1 an identity or bound failed numerically, 2 usage or parse
problem, 3 the conjectured tau floor was violated (the one outcome worth
shouting about, since it would be a mathematical discovery).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import connectivity, fuzzing, identities, invariants, transforms
from .errors import (
    ParseError,
    TauLabError,
    TooLarge,
    UnknownIdentityId,
)
from .graphs import MetrizedGraph, build_graph

TOOL_VERSION = "0.1.0"
SCHEMA = "taulab-report/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CONJECTURE = 3

# fuzz refuses larger --max-v and --max-e: the generator builds lists of
# that many entries and the catalog's cost grows with the edge count.  One
# case at the caps (100 vertices, 300 edges, random_connected_multigraph
# with each draw at its upper end) ran verify_all and lower_bounds in
# 3.4-5.9 s at 36 MB peak RSS on a shared 2-core x86-64 box; the slowest
# case seen under the caps, 100 vertices and 150 edges, took 25.4 s at 35 MB.
FUZZ_MAX_VERTICES = 100
FUZZ_MAX_EDGES = 300


# -- graph file format -------------------------------------------------------


def parse_graph(text: str) -> MetrizedGraph:
    """Parse the graph file format; raises ParseError with a line number."""
    vertex_count = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "graph":
            if vertex_count is not None:
                raise ParseError(f"line {lineno}: repeated graph header")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'graph <vertex_count>'")
            try:
                vertex_count = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex count {parts[1]!r} is not an integer") from None
        elif parts[0] == "edge":
            if vertex_count is None:
                raise ParseError(f"line {lineno}: edge before the graph header")
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected 'edge <u> <w> <length>'")
            try:
                a, b = int(parts[1]), int(parts[2])
                length = float(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed edge {line!r}") from None
            edges.append((a, b, length))
        else:
            raise ParseError(f"line {lineno}: unknown directive {parts[0]!r}")
    if vertex_count is None:
        raise ParseError("missing 'graph <vertex_count>' header")
    try:
        return build_graph(vertex_count, edges)
    except TauLabError as exc:
        raise ParseError(str(exc)) from exc


def serialize_graph(g: MetrizedGraph, comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in comments or []]
    lines.append(f"graph {g.vertex_count}")
    for a, b, length in g.edges:
        lines.append(f"edge {a} {b} {length!r}")
    return "\n".join(lines) + "\n"


def _load(path: str) -> MetrizedGraph:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_graph(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


# -- report plumbing ----------------------------------------------------------


def _finite(value):
    """Make a value JSON-friendly; math.inf (also INFINITE) becomes a string."""
    if value is None:
        return None
    if value == math.inf:
        return "infinite"
    return value


def _emit(kind: str, body: dict) -> None:
    report = {"schema": SCHEMA, "tool": "taulab", "version": TOOL_VERSION, "kind": kind}
    report.update(body)
    print(json.dumps(report, sort_keys=True, indent=2))


def _bounds_body(report: connectivity.BoundsReport) -> dict:
    return {
        "edge_connectivity": _finite(report.edge_conn),
        "vertex_connectivity": report.vertex_conn,
        "min_valence": report.min_valence,
        "bounds": [
            {
                "name": entry.name,
                "kind": entry.kind,
                "bound": entry.bound,
                "value": entry.value,
                "slack": entry.slack,
            }
            for entry in report.bounds
        ],
        "conjecture_margin": _finite(report.conjecture_margin),
    }


def _failed_bounds(bounds: connectivity.BoundsReport, tol: float) -> list[str]:
    """The bounds whose slack falls below -tol times the larger of |bound| and |value|.

    Relative, like tau's cross-base check, so a verdict does not change
    with the unit of length: equal-length bananas attain several bounds
    with equality, where an absolute test leaves the verdict to rounding.
    """
    return [entry.name for entry in bounds.bounds
            if entry.slack < -tol * max(abs(entry.bound), abs(entry.value))]


def _shout_violation(margin: float, g: MetrizedGraph) -> None:
    print(
        "CONJECTURE VIOLATION: tau/length - 1/108 = "
        f"{margin!r} on this graph:\n{serialize_graph(g)}",
        file=sys.stderr,
    )


# -- commands ----------------------------------------------------------------


def cmd_invariants(args) -> int:
    g = _load(args.path)
    inv = invariants.invariant_set(g)
    bounds = connectivity.lower_bounds(g)
    body = {
        "graph": {
            "vertices": g.vertex_count,
            "edges": g.edge_count,
            "genus": g.genus,
            "total_length": inv.ell,
        },
        "invariants": {
            "tau": inv.tau,
            "x": inv.x,
            "y": inv.y,
            "z": inv.z,
            "r": inv.r,
            "w": inv.w,
        },
    }
    body.update(_bounds_body(bounds))
    _emit("invariants", body)
    if bounds.conjecture_margin <= 0.0:
        _shout_violation(bounds.conjecture_margin, g)
        return EXIT_CONJECTURE
    if _failed_bounds(bounds, args.tol):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    wanted = [part.strip() for part in args.ids.split(",") if part.strip()]
    if not wanted:
        raise ParseError(f"--ids {args.ids!r} names no identity")
    g = _load(args.path)
    if wanted == ["all"]:
        reports = identities.verify_all(g, args.tol)
    else:
        reports = identities.verify_many(g, wanted, args.tol)
    failed = [r.identity for r in reports if r.applicable and not r.passed]
    _emit("verify", {
        "tolerance": args.tol,
        "identities": [dict(vars(r)) for r in reports],
        "failed": failed,
        "skipped": sum(1 for r in reports if not r.applicable),
    })
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_fuzz(args) -> int:
    import random

    # The report echoes these, so a value the generator would silently
    # clamp or exceed (or a negative count that runs nothing) is refused
    # instead, and so is a size past its cap, before anything is generated.
    # Every case plants a spanning tree of up to max_v - 1 edges.
    for flag, value, least, most in (("--count", args.count, 0, math.inf),
                                     ("--max-v", args.max_v, 2, FUZZ_MAX_VERTICES),
                                     ("--max-e", args.max_e, args.max_v - 1, FUZZ_MAX_EDGES)):
        if value < least:
            raise ParseError(f"{flag}={value} must be >= {least}")
        if value > most:
            raise ParseError(f"{flag}={value} must be <= {most}")
    rng = random.Random(args.seed)
    worst_residual = 0.0
    worst_slack = math.inf
    min_margin = math.inf
    worst_margin_graph = None
    failures = []
    cases = []
    for index in range(args.count):
        g = fuzzing.random_connected_multigraph(rng, args.max_v, args.max_e)
        reports = identities.verify_all(g, args.tol)
        bounds = connectivity.lower_bounds(g)
        case_failed = [r.identity for r in reports if r.applicable and not r.passed]
        for r in reports:
            if r.residual is not None:
                worst_residual = max(worst_residual, r.residual)
            if r.slack is not None:
                worst_slack = min(worst_slack, r.slack)
        for entry in bounds.bounds:
            worst_slack = min(worst_slack, entry.slack)
        case_failed += [f"bound: {name}" for name in _failed_bounds(bounds, args.tol)]
        if bounds.conjecture_margin < min_margin:
            min_margin = bounds.conjecture_margin
            worst_margin_graph = g
        if case_failed:
            failures.append({
                "case": index,
                "failed": case_failed,
                "graph": serialize_graph(g),
            })
        cases.append({
            "case": index,
            "vertices": g.vertex_count,
            "edges": g.edge_count,
            "bridgeless": g.is_bridgeless(),
            "failed": case_failed,
        })
    body = {
        "seed": args.seed,
        "count": args.count,
        "max_v": args.max_v,
        "max_e": args.max_e,
        "tolerance": args.tol,
        "worst_residual": worst_residual,
        "worst_slack": None if math.isinf(worst_slack) else worst_slack,
        "min_conjecture_margin": None if math.isinf(min_margin) else min_margin,
        "cases": cases,
        "failures": failures,
    }
    if min_margin <= 0.0 and worst_margin_graph is not None:
        body["violation_graph"] = serialize_graph(worst_margin_graph)
    _emit("fuzz", body)
    if min_margin <= 0.0 and args.count > 0:
        _shout_violation(min_margin, worst_margin_graph)
        return EXIT_CONJECTURE
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def cmd_transform(args) -> int:
    g = _load(args.path)
    comments = []
    edge_ops = {
        "contract": transforms.contract_edge,
        "delete": transforms.delete_edge,
        "identify": transforms.identify_endpoints,
    }
    if args.op in edge_ops:
        if args.edge is None:
            raise ParseError(f"--edge is required for --op {args.op}")
        result = edge_ops[args.op](g, args.edge)
    elif args.op == "da":
        result = transforms.double_adjusted(g)
    elif args.op in ("cubic", "reduce2"):
        before = invariants.tau(g)
        if args.op == "cubic":
            result, steps = transforms.cubic_transform_trace(g, args.epsilon)
        else:
            result = transforms.reduce_edge_connectivity_two(g)
        after = invariants.tau(result)
        comments += [f"tau before: {before!r}", f"tau after: {after!r}"]
        if args.op == "cubic":
            comments.append(f"tau increase allowance: {args.epsilon!r}, used steps: {len(steps)}")
        elif abs(after - before) <= 1e-9 * max(abs(after), abs(before)):
            comments.append("tau preserved")
    sys.stdout.write(serialize_graph(result, comments))
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = _load(args.path)
    direct = invariants.tau(g)
    integral = invariants.tau_oracle_integral(g, args.segments)
    note = None
    try:
        contraction = invariants.tau_oracle_contraction(g)
    except TooLarge as exc:
        contraction = None
        note = str(exc)
    body = {
        "segments": args.segments,
        "tau": direct,
        "tau_integral": integral,
        "tau_contraction": contraction,
        "deviation_integral": abs(direct - integral),
        "deviation_contraction": (
            None if contraction is None else abs(direct - contraction)
        ),
    }
    if note:
        body["note"] = note
    _emit("oracle", body)
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def _default_tol() -> float:
    raw = os.environ.get("TAULAB_TOL")
    if raw is None:
        return identities.DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ParseError(f"TAULAB_TOL={raw!r} is not a number") from None
    return identities.checked_tol(tol, "TAULAB_TOL")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; --tol defaults to None and is resolved by main."""
    parser = argparse.ArgumentParser(
        prog="taulab",
        description="Electrical invariants of metrized graphs and their identity catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="print the invariant set and bounds")
    p_inv.add_argument("path")
    p_inv.add_argument("--tol", type=float, default=None)
    p_inv.set_defaults(func=cmd_invariants)

    p_ver = sub.add_parser("verify", help="check identities against the graph")
    p_ver.add_argument("path")
    p_ver.add_argument("--ids", default="all", help="comma-separated ids, or 'all'")
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="random graphs through the whole catalog")
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument("--max-v", dest="max_v", type=int, default=6)
    p_fuzz.add_argument("--max-e", dest="max_e", type=int, default=12)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--tol", type=float, default=None)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_tr = sub.add_parser("transform", help="apply a surgery and print the result")
    p_tr.add_argument("path")
    p_tr.add_argument("--op", required=True,
                      choices=["contract", "delete", "identify", "da", "cubic", "reduce2"])
    p_tr.add_argument("--edge", type=int, default=None)
    p_tr.add_argument("--epsilon", type=float, default=1e-4,
                      help="total tau increase allowed by the cubic transform")
    p_tr.set_defaults(func=cmd_transform)

    p_or = sub.add_parser("oracle", help="compare tau against independent oracles")
    p_or.add_argument("path")
    p_or.add_argument("--segments", type=int, default=64)
    p_or.set_defaults(func=cmd_oracle)

    return parser


# Built once per process: parsing leaves the parser unchanged, and building
# it took about 1 ms, an eighth of a 6-vertex graph's verify and invariants.
_PARSER = build_parser()


def main(argv=None) -> int:
    # One BLAS thread, set before the first closed-form solve imports numpy
    # (importing this module does not): from 10 vertices up every report
    # number passes through LAPACK, whose last bits depend on the thread
    # count.  A caller that loaded numpy first keeps its own setting.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[name] = "1"
    try:
        # Read first, so that a bad TAULAB_TOL exits 2 before any other work.
        tol = _default_tol()
        args = _PARSER.parse_args(argv)
        if "tol" in vars(args):
            args.tol = tol if args.tol is None else identities.checked_tol(args.tol, "--tol")
        return args.func(args)
    except UnknownIdentityId as exc:
        # KeyError reprs its argument; unwrap for a readable message.
        print(f"taulab: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except TauLabError as exc:
        print(f"taulab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
