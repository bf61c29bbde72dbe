import json
import random
import time

import pytest

from taulab import cli, connectivity
from taulab.connectivity import BoundsReport
from taulab.errors import ParseError
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


def test_invariants_reports_infinite_connectivity(tmp_path, capsys):
    path = write(tmp_path, "graph 1\nedge 0 0 1.0\n")
    code, out, _ = run(capsys, ["invariants", path])
    assert code == 0
    report = json.loads(out)
    assert report["edge_connectivity"] == "infinite"
    assert report["vertex_connectivity"] is None


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


def test_parse_failures_exit_2(tmp_path, capsys):
    path = write(tmp_path, "graph 3\nedge 0 7 1.0\n")
    code, _, err = run(capsys, ["invariants", path])
    assert code == 2
    assert "taulab:" in err
    code, _, err = run(capsys, ["invariants", str(tmp_path / "missing.graph")])
    assert code == 2


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


def test_transform_reduce2_prints_tau_notes(tmp_path, capsys):
    path = write(tmp_path, "graph 4\nedge 0 1 1.0\nedge 1 2 1.0\nedge 2 3 1.0\nedge 3 0 1.0\n")
    code, out, _ = run(capsys, ["transform", path, "--op", "reduce2"])
    assert code == 0
    assert "# tau before: 0.3333333333333333" in out
    assert "# tau preserved" in out
    assert cli.parse_graph(out).vertex_count == 1


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


def test_oracle_command(tmp_path, capsys):
    path = write(tmp_path, TRIANGLE_TEXT)
    code, out, _ = run(capsys, ["oracle", path, "--segments", "64"])
    assert code == 0
    report = json.loads(out)
    assert report["deviation_integral"] < 1e-3
    assert report["deviation_contraction"] < 1e-12


def test_oracle_skips_contraction_on_large_graphs(tmp_path, capsys):
    ring = build_graph(10, [(i, (i + 1) % 10, 1.0) for i in range(10)])
    path = write(tmp_path, cli.serialize_graph(ring))
    code, out, _ = run(capsys, ["oracle", path])
    assert code == 0
    report = json.loads(out)
    assert report["tau_contraction"] is None
    assert report["deviation_contraction"] is None
    assert "note" in report
    assert report["tau"] == pytest.approx(10.0 / 12.0, rel=1e-12)


def test_oracle_refuses_oversized_quadrature_at_once(tmp_path, capsys):
    # 10^7 segments per edge would need a dense matrix of 3 * 10^7 rows
    path = write(tmp_path, TRIANGLE_TEXT)
    start = time.perf_counter()
    code, out, err = run(capsys, ["oracle", path, "--segments", "10000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "capped" in err


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
            bound_main=report.bound_main,
            bound_genus=report.bound_genus,
            bound_equal_length=report.bound_equal_length,
            conjecture_margin=-1.0,
        )

    monkeypatch.setattr(connectivity, "lower_bounds", pessimistic)
    code, _, err = run(capsys, ["invariants", path])
    assert code == 3
    assert "CONJECTURE VIOLATION" in err
