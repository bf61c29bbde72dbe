import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_circuit import random_regular_graph

from taulab import circuit, cli, connectivity, fuzzing, invariants, transforms
from taulab.connectivity import BoundsReport
from taulab.errors import ParseError, SingularSystem
from taulab.fuzzing import random_connected_multigraph
from taulab.graphs import build_graph

TRIANGLE_TEXT = """\
# unit triangle
graph 3
edge 0 1 1.0

edge 1 2 1.0
edge 2 0 1.0
"""


def write(tmp_path, text, name="g.graph"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- format --------------------------------------------------------------------


def test_parse_ignores_comments_and_blanks():
    g = cli.parse_graph(TRIANGLE_TEXT)
    assert g.vertex_count == 3
    assert g.edge_count == 3


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        cli.parse_graph("graph 2\nedge 0 1\n")
    with pytest.raises(ParseError, match="line 1"):
        cli.parse_graph("edge 0 1 1.0\n")
    with pytest.raises(ParseError, match="line 3"):
        cli.parse_graph("# fine\ngraph 2\nvertex 0\n")
    with pytest.raises(ParseError, match="repeated"):
        cli.parse_graph("graph 2\ngraph 2\n")
    with pytest.raises(ParseError):
        cli.parse_graph("graph 2\n")  # disconnected
    with pytest.raises(ParseError):
        cli.parse_graph("")


def test_round_trip_is_bit_exact():
    rng = random.Random(60)
    for _ in range(50):
        g = random_connected_multigraph(rng, 7, 14)
        assert cli.parse_graph(cli.serialize_graph(g)) == g


def test_serialize_comments_parse_back(triangle):
    text = cli.serialize_graph(triangle, comments=["tau before: 0.25"])
    assert text.startswith("# tau before")
    assert cli.parse_graph(text) == triangle


# -- commands ------------------------------------------------------------------


def test_invariants_command(tmp_path, capsys):
    path = write(tmp_path, TRIANGLE_TEXT)
    code, out, _ = run(capsys, ["invariants", path])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "taulab-report/1"
    assert report["kind"] == "invariants"
    assert report["invariants"]["tau"] == pytest.approx(0.25, rel=1e-12)
    assert report["graph"]["genus"] == 1
    assert report["edge_connectivity"] == 2
    assert report["conjecture_margin"] > 0
    names = [b["name"] for b in report["bounds"]]
    assert "vertex-count bound" in names


def test_invariants_reports_infinite_connectivity(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "graph 1\nedge 0 0 1.0\nedge 0 0 2.5\n")
    code, out, _ = run(capsys, ["invariants", path])
    assert code == 0
    report = json.loads(out)
    assert report["edge_connectivity"] == "infinite"
    assert report["vertex_connectivity"] is None
    assert [b["name"] for b in report["bounds"]] == [
        "edge-connectivity bound", "vertex-count bound", "length over 108", "genus bound",
    ]
    # fuzz carries no connectivity field; a bouquet case passes every bound.
    g = cli.parse_graph("graph 1\nedge 0 0 1.0\nedge 0 0 2.5\n")
    monkeypatch.setattr(cli.fuzzing, "random_connected_multigraph", lambda rng, v, e: g)
    code, out, _ = run(capsys, ["fuzz", "--count", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["cases"] == [{"bridgeless": True, "case": 0, "edges": 2, "failed": [], "vertices": 1}]
    assert report["min_conjecture_margin"] == 0.07407407407407408
    assert report["worst_slack"] == 0.0
    # A 2-edge-cut reduction needs a finite connectivity.
    code, out, err = run(capsys, ["transform", path, "--op", "reduce2"])
    assert (code, out) == (2, "")
    assert err == "taulab: reduce_edge_connectivity_two: edge connectivity is inf, need exactly 2\n"


def test_invariants_stdout_is_strict_json(tmp_path, capsys):
    # No edges, no length: the conjecture margin is infinite, which JSON
    # has no number for.
    path = write(tmp_path, "graph 1\n")
    code, out, _ = run(capsys, ["invariants", path])
    assert code == 0

    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    report = json.loads(out, parse_constant=refuse)
    assert report["conjecture_margin"] == "infinite"


def test_verify_command_all(tmp_path, capsys):
    path = write(tmp_path, TRIANGLE_TEXT)
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    report = json.loads(out)
    assert len(report["identities"]) == 40
    assert report["failed"] == []
    assert report["skipped"] == 2  # the normalized-only pair


def test_verify_command_subset_and_skips(tmp_path, capsys):
    path = write(tmp_path, TRIANGLE_TEXT)
    code, out, _ = run(capsys, ["verify", path, "--ids", "GENUS,NORM2TERM"])
    assert code == 0
    report = json.loads(out)
    rows = {r["identity"]: r for r in report["identities"]}
    assert rows["GENUS"]["applicable"] and rows["GENUS"]["passed"]
    assert not rows["NORM2TERM"]["applicable"]
    assert "normalize" in rows["NORM2TERM"]["note"]


def test_verify_single_edge_tree_skips_contraction(tmp_path, capsys):
    path = write(tmp_path, "graph 2\nedge 0 1 1.0\n")
    code, out, _ = run(capsys, ["verify", path, "--ids", "CONTR_X"])
    assert code == 0
    report = json.loads(out)
    assert report["skipped"] == 1


def test_verify_unknown_id(tmp_path, capsys):
    path = write(tmp_path, TRIANGLE_TEXT)
    code, _, err = run(capsys, ["verify", path, "--ids", "NOPE"])
    assert code == 2
    assert "unknown identity" in err


def test_verify_ids_that_name_no_identity_exit_2(tmp_path, capsys):
    # A check that checks nothing is a usage error, not a pass.
    path = write(tmp_path, TRIANGLE_TEXT)
    for ids in ("", ",", " "):
        code, out, err = run(capsys, ["verify", path, "--ids", ids])
        assert (code, out) == (2, ""), ids
        assert "names no identity" in err


def test_verify_exit_matches_library_verdict(tmp_path, capsys):
    # ugly lengths at zero tolerance: the CLI must agree with verify_all
    from taulab.identities import verify_all
    g = build_graph(3, [(0, 1, 0.1), (1, 2, 0.37), (2, 0, 1.03)])
    expects_failure = any(r.applicable and not r.passed for r in verify_all(g, tol=0.0))
    path = write(tmp_path, cli.serialize_graph(g))
    code, out, _ = run(capsys, ["verify", path, "--tol", "0.0"])
    assert code == (1 if expects_failure else 0)
    report = json.loads(out)
    assert bool(report["failed"]) == expects_failure


# sha256 of the stdout of verify --ids all then invariants, on each graph of
# test_identity_and_invariant_report_bytes_are_pinned in turn.
PINNED_REPORTS_SHA256 = "e308eb28371326aa4ff5dd110d1fe26d21317d9a5446601f9caf8ac2cf80fc0c"


def test_identity_and_invariant_report_bytes_are_pinned(tmp_path, capsys, monkeypatch, report_graphs):
    # The report_graphs fixture: no BLAS call, so the bytes do not depend on
    # the BLAS build.
    monkeypatch.delenv("TAULAB_TOL", raising=False)
    digest = hashlib.sha256()
    for g in report_graphs:
        path = write(tmp_path, cli.serialize_graph(g))
        for argv in (["verify", path, "--ids", "all"], ["invariants", path]):
            digest.update(run(capsys, argv)[1].encode())
    assert any(g.bridges() for g in report_graphs)
    assert any(a == b for g in report_graphs for a, b, _ in g.edges)
    assert digest.hexdigest() == PINNED_REPORTS_SHA256


# sha256 of the stdout of verify --ids all (graphs of at most 13 vertices)
# then invariants, on each graph of
# test_closed_form_report_bytes_are_pinned in turn.
PINNED_CLOSED_FORM_SHA256 = "fa939943fb1589a5e46c544fdf8253d335236017907362bd01454fc02f1e3001"


def test_closed_form_report_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    # Graphs of 10 to 42 vertices, which take the closed-form route: a cycle
    # plus 2n random chords (parallel edges and loops), lengths log-uniform
    # over 1e-4..1e4, two pendant bridges, and one 1e-3 chord whose closed
    # form the guard rejects, so GTH patches it (as it does other edges).  The
    # grounded inverse goes through LAPACK, so these bytes hold for one
    # numpy/BLAS build; they were the same on one and on two BLAS threads.
    monkeypatch.delenv("TAULAB_TOL", raising=False)
    rng = random.Random(1818)
    digest = hashlib.sha256()
    loops = 0
    for n in (8, 9, 10, 11, 12, 14, 17, 20, 24, 29, 34, 40):
        pairs = [(p, (p + 1) % n) for p in range(n)]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
        pairs += [(rng.randrange(n), n), (rng.randrange(n), n + 1)]
        edges = [(a, b, 10.0 ** rng.uniform(-4.0, 4.0)) for a, b in pairs]
        while True:  # a chord of 1e-3 whose closed form the guard rejects
            g = build_graph(n + 2, edges + [(*rng.sample(range(n), 2), 1e-3)])
            closed = circuit._deleted_edge_inverses(g)
            if closed is None or g.edge_count - 1 in closed[-1]:
                break
        assert closed is not None and len(g.bridges()) == 2
        loops += sum(a == b for a, b, _ in g.edges)
        path = write(tmp_path, cli.serialize_graph(g))
        if g.vertex_count <= 13:
            digest.update(run(capsys, ["verify", path, "--ids", "all"])[1].encode())
        digest.update(run(capsys, ["invariants", path])[1].encode())
    assert loops > 0
    assert digest.hexdigest() == PINNED_CLOSED_FORM_SHA256


def test_parse_failures_exit_2(tmp_path, capsys):
    path = write(tmp_path, "graph 3\nedge 0 7 1.0\n")
    code, _, err = run(capsys, ["invariants", path])
    assert code == 2
    assert "taulab:" in err
    code, _, err = run(capsys, ["invariants", str(tmp_path / "missing.graph")])
    assert code == 2


def test_lengths_beyond_the_circuit_range_exit_2(tmp_path, capsys):
    for length in ("1e200", "1e-200"):
        path = write(tmp_path, f"graph 3\nedge 0 1 {length}\nedge 1 2 {length}\nedge 2 0 {length}\n")
        for argv in (["invariants", path], ["verify", path, "--ids", "all"]):
            code, out, err = run(capsys, argv)
            assert code == 2, (length, argv)
            assert out == ""
            assert err.startswith("taulab: ") and "Traceback" not in err
    # At the bound itself every command that shrinks lengths still runs.
    path = write(tmp_path, "graph 3\nedge 0 1 1e-100\nedge 1 2 1e-100\nedge 2 0 1e-100\n")
    for argv in (["verify", path, "--ids", "all"], ["oracle", path]):
        code, out, err = run(capsys, argv)
        assert code == 0, (argv, err)


def test_huge_vertex_count_without_edges_exits_2(tmp_path, capsys):
    path = write(tmp_path, "graph 100000000\n")
    code, out, err = run(capsys, ["invariants", path])
    assert code == 2
    assert out == ""
    assert "not connected" in err


def test_fuzz_deterministic(capsys):
    code1, out1, _ = run(capsys, ["fuzz", "--count", "10", "--seed", "5"])
    code2, out2, _ = run(capsys, ["fuzz", "--count", "10", "--seed", "5"])
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["count"] == 10
    assert report["seed"] == 5
    assert len(report["cases"]) == 10
    assert report["min_conjecture_margin"] > 0


def test_fuzz_empty(capsys):
    code, out, _ = run(capsys, ["fuzz", "--count", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["cases"] == []
    assert report["worst_slack"] is None


def test_fuzz_arguments_must_be_in_range(capsys):
    # --max-e below --max-v - 1 (5 by default) would be exceeded by the
    # planted spanning tree
    for flag, raw in (("--count", "-3"), ("--max-v", "1"), ("--max-v", "0"), ("--max-e", "-4"),
                      ("--max-e", "0"), ("--max-e", "4")):
        # the later --count wins, so each case sets just one bad value
        code, out, err = run(capsys, ["fuzz", "--count", "1", flag, raw])
        assert code == 2, (flag, raw)
        assert out == ""
        assert flag in err
    code, out, _ = run(capsys, ["fuzz", "--count", "1", "--max-v", "2", "--max-e", "1"])
    assert code == 0
    report = json.loads(out)
    assert (report["max_v"], report["max_e"]) == (2, 1)
    assert report["cases"][0]["vertices"] == 2


def test_fuzz_refuses_sizes_past_its_caps_before_generating(capsys, monkeypatch):
    # The generator is replaced, so a refusal that came too late would show
    # as a call instead of allocating lists of a billion entries.
    asked = []
    bouquet = cli.parse_graph("graph 1\nedge 0 0 1.0\nedge 0 0 2.5\n")

    def generator(rng, max_v, max_e):
        asked.append((max_v, max_e))
        return bouquet

    monkeypatch.setattr(cli.fuzzing, "random_connected_multigraph", generator)
    v_cap, e_cap = cli.FUZZ_MAX_VERTICES, cli.FUZZ_MAX_EDGES
    for flag, sizes in (("--max-e", (3, 300_000_000)), ("--max-v", (v_cap + 1, e_cap)),
                        ("--max-v", (10 ** 9, 10 ** 9)), ("--max-e", (v_cap, e_cap + 1))):
        argv = ["fuzz", "--count", "1", "--max-v", str(sizes[0]), "--max-e", str(sizes[1])]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), sizes
        assert err.startswith(f"taulab: {flag}=") and "must be <=" in err, (sizes, err)
    assert asked == []
    code, out, _ = run(capsys, ["fuzz", "--count", "1", "--max-v", str(v_cap), "--max-e", str(e_cap)])
    assert code == 0
    assert asked == [(v_cap, e_cap)]


def test_transform_contract(tmp_path, capsys):
    path = write(tmp_path, TRIANGLE_TEXT)
    code, out, _ = run(capsys, ["transform", path, "--op", "contract", "--edge", "0"])
    assert code == 0
    banana = cli.parse_graph(out)
    assert banana.vertex_count == 2
    assert banana.edge_count == 2


def test_transform_requires_edge(tmp_path, capsys):
    path = write(tmp_path, TRIANGLE_TEXT)
    code, _, err = run(capsys, ["transform", path, "--op", "contract"])
    assert code == 2
    assert "--edge" in err


def test_transform_unknown_op_exits_2_in_argparse(tmp_path):
    path = write(tmp_path, TRIANGLE_TEXT)
    with pytest.raises(SystemExit) as exc:
        cli.main(["transform", path, "--op", "bogus"])
    assert exc.value.code == 2


def test_transform_reduce2_prints_tau_notes(tmp_path, capsys):
    path = write(tmp_path, "graph 4\nedge 0 1 1.0\nedge 1 2 1.0\nedge 2 3 1.0\nedge 3 0 1.0\n")
    code, out, _ = run(capsys, ["transform", path, "--op", "reduce2"])
    assert code == 0
    assert "# tau before: 0.3333333333333333" in out
    assert "# tau preserved" in out
    assert cli.parse_graph(out).vertex_count == 1


def test_transform_reduce2_compares_taus_relatively(tmp_path, capsys, monkeypatch):
    # On C4 scaled by 2^-40 both taus are near 3e-13, so an absolute floor of
    # 1e-9 would call any change preserved; a reduction that comes out with
    # one edge 1% longer must not.
    reduce = transforms.reduce_edge_connectivity_two

    def lengthened(g):
        out = reduce(g)
        (a, b, length), *rest = out.edges
        return build_graph(out.vertex_count, [(a, b, 1.01 * length), *rest])

    monkeypatch.setattr(transforms, "reduce_edge_connectivity_two", lengthened)
    c4 = build_graph(4, [(i, (i + 1) % 4, 1.0) for i in range(4)]).scaled(2.0 ** -40)
    path = write(tmp_path, cli.serialize_graph(c4))
    code, out, _ = run(capsys, ["transform", path, "--op", "reduce2"])
    assert code == 0
    assert "# tau before" in out and "# tau after" in out
    assert "tau preserved" not in out


def test_transform_cubic_on_normalized_k5(tmp_path, capsys):
    edges = [(a, b, 0.1) for a in range(5) for b in range(a + 1, 5)]
    g = build_graph(5, edges)
    path = write(tmp_path, cli.serialize_graph(g))
    code, out, _ = run(capsys, ["transform", path, "--op", "cubic", "--epsilon", "1e-5"])
    assert code == 0
    result = cli.parse_graph(out)
    assert all(result.valence(p) == 3 for p in range(result.vertex_count))
    assert "# tau before" in out and "# tau after" in out


def test_transform_errors_exit_2(tmp_path, capsys):
    # cubic on a non-normalized graph is a usage error
    path = write(tmp_path, TRIANGLE_TEXT)
    code, _, err = run(capsys, ["transform", path, "--op", "cubic"])
    assert code == 2
    # deleting a bridge too
    path = write(tmp_path, "graph 2\nedge 0 1 1.0\n", "bridge.graph")
    code, _, err = run(capsys, ["transform", path, "--op", "delete", "--edge", "0"])
    assert code == 2
    # an edge of a graph that has none
    path = write(tmp_path, "graph 1\n", "point.graph")
    code, out, err = run(capsys, ["transform", path, "--op", "identify", "--edge", "0"])
    assert (code, out) == (2, "")
    assert err == "taulab: edge 0: the graph has no edges\n"


def test_oracle_command(tmp_path, capsys):
    path = write(tmp_path, TRIANGLE_TEXT)
    code, out, _ = run(capsys, ["oracle", path, "--segments", "64"])
    assert code == 0
    report = json.loads(out)
    assert report["deviation_integral"] < 1e-3
    assert report["deviation_contraction"] < 1e-12


def test_oracle_skips_contraction_on_large_graphs(tmp_path, capsys):
    # The 10-ring's lattice has 1,013 nodes, so the contraction route runs;
    # the 14-ring's 2^13 - 1 spanning-tree subsets alone pass the node cap.
    ring = build_graph(10, [(i, (i + 1) % 10, 1.0) for i in range(10)])
    path = write(tmp_path, cli.serialize_graph(ring))
    code, out, _ = run(capsys, ["oracle", path])
    assert code == 0
    report = json.loads(out)
    assert "note" not in report
    assert report["tau_contraction"] == pytest.approx(10.0 / 12.0, rel=1e-12)
    assert report["tau"] == pytest.approx(10.0 / 12.0, rel=1e-12)
    ring = build_graph(14, [(i, (i + 1) % 14, 1.0) for i in range(14)])
    path = write(tmp_path, cli.serialize_graph(ring), "ring14.graph")
    code, out, _ = run(capsys, ["oracle", path])
    assert code == 0
    report = json.loads(out)
    assert report["tau_contraction"] is None
    assert report["deviation_contraction"] is None
    assert "more than 5000 nodes" in report["note"]
    assert report["tau"] == pytest.approx(14.0 / 12.0, rel=1e-12)


def test_oracle_refuses_oversized_quadrature_at_once(tmp_path, capsys):
    # 10^7 segments per edge would need a dense matrix of 3 * 10^7 rows
    path = write(tmp_path, TRIANGLE_TEXT)
    start = time.perf_counter()
    code, out, err = run(capsys, ["oracle", path, "--segments", "10000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "capped" in err


def test_oracle_refuses_a_lattice_over_its_node_cap(tmp_path, capsys):
    # K6 with every pair tripled has a contraction lattice of 100,216
    # nodes: the build stops at the node cap, and the refusal is the
    # report's note, as on any graph.
    k6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    g = build_graph(6, [(a, b, 1.0 + 0.125 * copy) for a, b in k6 for copy in range(3)])
    path = write(tmp_path, cli.serialize_graph(g))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["oracle", path, "--segments", "4"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    report = json.loads(out)
    assert "more than 5000 nodes" in report["note"]
    assert report["tau_contraction"] is None
    # Four segments per edge leave a second-order error of a few percent.
    assert report["tau_integral"] == pytest.approx(report["tau"], rel=0.1)


def test_oracle_notes_a_refused_lattice_at_the_fuzz_caps(tmp_path, capsys):
    # A graph as large as fuzz draws (100 vertices, 300 edges): the key walk
    # refuses its lattice at once, and the other routes still report.
    rng = random.Random(3)
    v, e = cli.FUZZ_MAX_VERTICES, cli.FUZZ_MAX_EDGES
    pairs = fuzzing._random_tree_edges(rng, v)
    pairs += [tuple(rng.sample(range(v), 2)) for _ in range(e - len(pairs))]
    g = build_graph(v, [(a, b, fuzzing.random_length(rng)) for a, b in pairs])
    path = write(tmp_path, cli.serialize_graph(g))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["oracle", path, "--segments", "2"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    report = json.loads(out)
    assert "more than 5000 nodes" in report["note"]
    assert report["tau_contraction"] is None
    assert math.isfinite(report["tau_integral"])


def test_tol_env_override(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, TRIANGLE_TEXT)
    monkeypatch.setenv("TAULAB_TOL", "0.5")
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    assert json.loads(out)["tolerance"] == 0.5
    for raw in ("not-a-number", "nan", "inf", "-inf", "-1"):
        monkeypatch.setenv("TAULAB_TOL", raw)
        code, _, err = run(capsys, ["verify", path])
        assert code == 2, raw
        assert "TAULAB_TOL" in err


def test_tol_flag_must_be_finite_and_nonnegative(tmp_path, capsys):
    path = write(tmp_path, TRIANGLE_TEXT)
    for command in (["invariants", path], ["verify", path], ["fuzz", "--count", "1"]):
        for raw in ("nan", "inf", "-1"):
            code, out, err = run(capsys, command + ["--tol", raw])
            assert code == 2, (command, raw)
            assert out == ""
            assert "--tol" in err
        code, _, _ = run(capsys, command + ["--tol", "1e-6"])
        assert code == 0, command


def test_conjecture_violation_exit_code(tmp_path, capsys, monkeypatch):
    # No real graph violates the conjectured floor (that is the point of the
    # scan), so fake the bounds report to prove the exit-code wiring works.
    path = write(tmp_path, TRIANGLE_TEXT)
    real = connectivity.lower_bounds

    def pessimistic(g):
        report = real(g)
        return BoundsReport(
            edge_conn=report.edge_conn,
            vertex_conn=report.vertex_conn,
            min_valence=report.min_valence,
            bounds=report.bounds,
            conjecture_margin=-1.0,
        )

    monkeypatch.setattr(connectivity, "lower_bounds", pessimistic)
    code, _, err = run(capsys, ["invariants", path])
    assert code == 3
    assert "CONJECTURE VIOLATION" in err


def banana4(scale):
    """Four parallel edges of length scale between two vertices."""
    return build_graph(2, [(0, 1, scale)] * 4)


def test_bound_verdicts_do_not_depend_on_the_unit_of_length(tmp_path, capsys, monkeypatch):
    # The equal-length banana attains the edge-connectivity, vertex-count
    # and equal-length lower bounds with equality, and scaling by a power
    # of two is exact, so only a test relative to the bound's size passes
    # at every unit.
    monkeypatch.delenv("TAULAB_TOL", raising=False)
    for k in range(-60, 61):
        path = write(tmp_path, cli.serialize_graph(banana4(2.0 ** k)))
        code, out, _ = run(capsys, ["invariants", path])
        assert code == 0, (k, json.loads(out)["bounds"])
    for k in (-60, -40, 26, 40, 60):
        monkeypatch.setattr(cli.fuzzing, "random_connected_multigraph", lambda rng, v, e: banana4(2.0 ** k))
        _, out, _ = run(capsys, ["fuzz", "--count", "1"])
        assert not [f for f in json.loads(out)["cases"][0]["failed"] if f.startswith("bound:")], k


def test_a_bound_missed_by_a_relative_1e_6_fails_at_a_small_unit(tmp_path, capsys, monkeypatch):
    # At lengths of 2^-40 the miss is about 1e-19 in absolute terms, yet
    # 1e-6 of the bound: both commands count it as a failed bound.
    monkeypatch.delenv("TAULAB_TOL", raising=False)
    real = connectivity.lower_bounds

    def planted(g):
        report = real(g)
        tau = report.bounds[0].value
        missed = connectivity.BoundEntry("planted", "lower", tau * (1.0 + 1e-6), tau)
        return dataclasses.replace(report, bounds=report.bounds + (missed,))

    monkeypatch.setattr(connectivity, "lower_bounds", planted)
    g = banana4(2.0 ** -40)
    code, _, _ = run(capsys, ["invariants", write(tmp_path, cli.serialize_graph(g))])
    assert code == 1
    monkeypatch.setattr(cli.fuzzing, "random_connected_multigraph", lambda rng, v, e: g)
    _, out, _ = run(capsys, ["fuzz", "--count", "1"])
    assert "bound: planted" in json.loads(out)["cases"][0]["failed"]


def test_parser_is_built_once_and_reads_the_tolerance_per_call(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, TRIANGLE_TEXT)
    parser = cli._PARSER
    for raw in ("0.25", "1e-3"):
        monkeypatch.setenv("TAULAB_TOL", raw)
        code, out, _ = run(capsys, ["verify", path])
        assert code == 0
        assert json.loads(out)["tolerance"] == float(raw)
    monkeypatch.delenv("TAULAB_TOL")
    code, out, _ = run(capsys, ["verify", path])
    assert json.loads(out)["tolerance"] == cli.identities.DEFAULT_TOL
    code, out, _ = run(capsys, ["verify", path, "--tol", "0.5"])
    assert json.loads(out)["tolerance"] == 0.5
    # A bad TAULAB_TOL is refused before the arguments are looked at.
    monkeypatch.setenv("TAULAB_TOL", "nan")
    code, out, err = run(capsys, ["no-such-command"])
    assert code == 2 and out == "" and "TAULAB_TOL" in err
    assert cli._PARSER is parser


def test_usage_and_help_bytes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    assert capsys.readouterr().out == (
        "usage: taulab verify [-h] [--ids IDS] [--tol TOL] path\n\n"
        "positional arguments:\n  path\n\n"
        "options:\n  -h, --help  show this help message and exit\n"
        "  --ids IDS   comma-separated ids, or 'all'\n  --tol TOL\n"
    )
    with pytest.raises(SystemExit):
        cli.main([])
    assert capsys.readouterr().err.startswith(
        "usage: taulab [-h] {invariants,verify,fuzz,transform,oracle} ...\n"
    )


def skew_other_bases(monkeypatch):
    """Make graph_profile report a different tau at every base but 0."""
    real = invariants.graph_profile

    def skewed(g, base=0):
        prof = real(g, base)
        return prof if base == 0 else dataclasses.replace(prof, tau=2.0 * prof.tau + 1.0)

    monkeypatch.setattr(invariants, "graph_profile", skewed)


def test_cross_base_disagreement_is_a_typed_error(tmp_path, capsys, monkeypatch):
    text = "graph 4\nedge 0 1 1.25\nedge 1 2 2.5\nedge 2 3 0.75\nedge 3 0 3.0\nedge 0 2 1.5\n"
    path = write(tmp_path, text)
    skew_other_bases(monkeypatch)
    with pytest.raises(SingularSystem, match="disagrees across base vertices"):
        invariants.tau(cli.parse_graph(text))
    for command in (["verify", path], ["invariants", path]):
        code, out, err = run(capsys, command)
        assert code == 2, command
        assert out == ""
        assert err.startswith("taulab: tau disagrees across base vertices") and "Traceback" not in err
        assert err.count("\n") == 1


OPTIMIZED_SCRIPT = """
import contextlib, dataclasses, io, sys
from taulab import cli, invariants
from taulab.errors import SingularSystem
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["invariants", sys.argv[1]])
print(code, out.getvalue())
real = invariants.graph_profile
invariants.graph_profile = lambda g, base=0: (
    real(g, base) if base == 0 else dataclasses.replace(real(g, base), tau=0.0))
try:
    invariants.tau(cli.parse_graph(open(sys.argv[1]).read()))
    print("no error")
except SingularSystem as exc:
    print("SingularSystem:", exc)
print("debug", __debug__, file=sys.stderr)
"""


def test_optimized_mode_keeps_report_bytes_and_the_cross_base_check(tmp_path):
    path = write(tmp_path, TRIANGLE_TEXT)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    runs = {}
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-c", OPTIMIZED_SCRIPT, path],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        runs[tuple(flags)] = done
    assert runs[("-O",)].stderr == "debug False\n"
    assert runs[()].stderr == "debug True\n"
    assert runs[("-O",)].stdout == runs[()].stdout
    assert runs[()].stdout.startswith("0 {")
    assert "SingularSystem: tau disagrees across base vertices" in runs[()].stdout


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # From 10 vertices up every report number passes through LAPACK.  On
    # this 180-vertex graph OpenBLAS on two threads once moved the last
    # digit of tau, x and the bounds; the command now pins one thread
    # before numpy loads, whatever the environment asks for.
    rng = random.Random(180)
    g = random_regular_graph(rng, 180, lambda: 10.0 ** rng.uniform(-1.0, 1.0))
    path = write(tmp_path, cli.serialize_graph(g))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("TAULAB_TOL", None)
    outputs = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-m", "taulab.cli", "invariants", path],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
