import ast
import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from taulab import circuit, invariants
from taulab.circuit import all_edge_circuit_data, effective_resistance
from taulab.cli import serialize_graph
from taulab.errors import DisconnectedGraph
from taulab.fuzzing import random_connected_multigraph
from taulab.graphs import MetrizedGraph, build_graph, graph_memo
from taulab.identities import verify_all
from taulab.invariants import tau
from taulab.transforms import delete_edge, double_adjusted


def loop_laplacian(n, edges):
    """The weighted Laplacian built one edge at a time, in edge order."""
    lap = np.zeros((n, n))
    for a, b, length in edges:
        if a == b:
            continue
        c = 1.0 / length
        lap[a, a] += c
        lap[b, b] += c
        lap[a, b] -= c
        lap[b, a] -= c
    return lap


def pinv_resistance(g, x, y):
    """Independent oracle: resistance distance from the Laplacian pseudoinverse."""
    plus = np.linalg.pinv(loop_laplacian(g.vertex_count, g.edges))
    return plus[x, x] + plus[y, y] - 2.0 * plus[x, y]


def test_series_and_parallel():
    series = build_graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
    assert effective_resistance(series, 0, 2) == pytest.approx(5.0, rel=1e-12)
    parallel = build_graph(2, [(0, 1, 2.0), (0, 1, 2.0)])
    assert effective_resistance(parallel, 0, 1) == pytest.approx(1.0, rel=1e-12)


def test_known_symmetric_values(triangle, k4):
    # triangle: 1 in parallel with 1+1
    assert effective_resistance(triangle, 0, 1) == pytest.approx(2.0 / 3.0, rel=1e-12)
    # K4 with unit lengths: every pair sees 1/2
    for x in range(4):
        for y in range(x + 1, 4):
            assert effective_resistance(k4, x, y) == pytest.approx(0.5, rel=1e-12)


def test_loops_do_not_conduct():
    g = build_graph(2, [(0, 1, 4.0), (0, 0, 1.0)])
    assert effective_resistance(g, 0, 1) == pytest.approx(4.0, rel=1e-12)


def test_same_vertex_resistance_is_zero(triangle):
    assert effective_resistance(triangle, 1, 1) == 0.0


def test_resistance_matches_pseudoinverse_oracle():
    rng = random.Random(2024)
    for _ in range(30):
        g = random_connected_multigraph(rng, 6, 12)
        for _ in range(3):
            x = rng.randrange(g.vertex_count)
            y = rng.randrange(g.vertex_count)
            ours = effective_resistance(g, x, y)
            theirs = pinv_resistance(g, x, y)
            assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-12)


def non_bridges(g):
    """The edge ids outside g.bridges(), in order."""
    return [i for i in range(g.edge_count) if i not in g.bridges()]


def test_triangle_edge_data(triangle):
    c = all_edge_circuit_data(triangle, 0)
    # edge 0 = (0, 1): the rest is a two-edge path of length 2
    assert c.resistance[0] == pytest.approx(2.0, rel=1e-12)
    assert c.arm_first[0] == pytest.approx(0.0, abs=1e-12)  # base sits at the first endpoint
    assert c.arm_second[0] == pytest.approx(2.0, rel=1e-12)
    assert 0 not in triangle.bridges()


def test_arm_sum_recovers_deleted_resistance():
    rng = random.Random(77)
    for _ in range(20):
        g = random_connected_multigraph(rng, 6, 10)
        base = rng.randrange(g.vertex_count)
        c = all_edge_circuit_data(g, base)
        for i in non_bridges(g):
            assert c.arm_first[i] + c.arm_second[i] == pytest.approx(c.resistance[i], rel=1e-9, abs=1e-12)
    # These sizes take the closed form, whose arms are a difference.
    for n in (circuit.RANK_ONE_MIN_VERTICES, 20, 40):
        g = random_regular_graph(rng, n, lambda: 10.0 ** rng.uniform(-1.0, 1.0))
        for base in range(g.vertex_count):
            *columns, arm_base = all_edge_circuit_data(g, base)
            resistance, arm_first, arm_second = map(np.asarray, columns)
            assert arm_base is None
            np.testing.assert_allclose(arm_first + arm_second, resistance, rtol=1e-9, atol=1e-12)
            assert (np.minimum(arm_first, arm_second) >= -1e-12 * resistance).all(), (n, base)


def test_loop_edge_data():
    g = build_graph(2, [(0, 1, 1.0), (1, 1, 3.0)])
    c = all_edge_circuit_data(g, 0)
    assert 1 not in g.bridges()
    assert c.resistance[1] == 0.0
    assert c.arm_first[1] == 0.0 and c.arm_second[1] == 0.0


def test_bridge_edge_data(path2):
    c = all_edge_circuit_data(path2, 0)
    assert 0 in path2.bridges()
    assert np.isnan([c.resistance[0], c.arm_first[0], c.arm_second[0]]).all()


def test_deleted_resistance_matches_pseudoinverse_oracle():
    rng = random.Random(4711)
    for _ in range(30):
        g = random_connected_multigraph(rng, 6, 12)
        c = all_edge_circuit_data(g, 0)
        for i in non_bridges(g):
            a, b, _ = g.edges[i]
            oracle = pinv_resistance(delete_edge(g, i), a, b)
            assert c.resistance[i] == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_deleted_resistance_is_base_independent():
    rng = random.Random(5150)
    for _ in range(10):
        g = random_connected_multigraph(rng, 5, 9)
        per_base = [all_edge_circuit_data(g, p).resistance for p in range(g.vertex_count)]
        for values in per_base[1:]:
            np.testing.assert_allclose(values, per_base[0], rtol=1e-9, atol=1e-12)


# -- exact rational references (stdlib only) ----------------------------------


def exact_deleted_inverse(vertex_count, edges, skip):
    """Inverse of the Laplacian without edge ``skip``, grounded at vertex 0, in Fractions.

    Gauss-Jordan elimination on [A | I]; the result is padded back with a
    zero row and column at vertex 0, so r(x, y) = K[x][x] + K[y][y] - 2 K[x][y].
    """
    n = vertex_count
    lap = [[Fraction(0)] * n for _ in range(n)]
    for i, (a, b, length) in enumerate(edges):
        if i == skip or a == b:
            continue
        c = 1 / Fraction(length)
        lap[a][a] += c
        lap[b][b] += c
        lap[a][b] -= c
        lap[b][a] -= c
    size = n - 1
    aug = [lap[x][1:] + [Fraction(int(x == y)) for y in range(1, n)] for x in range(1, n)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        aug[col] = [value / head for value in aug[col]]
        for r in range(size):
            factor = aug[r][col]
            if r != col and factor != 0:
                aug[r] = [value - factor * top for value, top in zip(aug[r], aug[col])]
    K = [[Fraction(0)] * n for _ in range(n)]
    for x in range(size):
        K[x + 1][1:] = aug[x][size:]
    return K


def exact_resistances_to(K, v):
    return [K[x][x] + K[v][v] - 2 * K[x][v] for x in range(len(K))]


def exact_tau(g):
    """tau = (1/4) of the integral of the squared slope of r(., 0), edge by edge.

    On a non-bridge edge (a, b, L) with deleted-edge resistance R and star
    arms A_a, A_b toward vertex 0, the slope at distance t from a is
    (L - 2t - (A_a - A_b)) / (L + R), so the edge contributes
    (L^3/3 + L (A_a - A_b)^2) / (4 (L + R)^2).  A self-loop is the case
    R = 0 and A_a = A_b.  The graph must be bridgeless.
    """
    total = Fraction(0)
    for i, (a, b, length) in enumerate(g.edges):
        L = Fraction(length)
        if a == b:
            total += L / 12
            continue
        K = exact_deleted_inverse(g.vertex_count, g.edges, i)
        R = K[a][a] + K[b][b] - 2 * K[a][b]
        gap = K[a][a] - K[b][b]  # r(0, a) - r(0, b) = A_a - A_b
        total += (L ** 3 / 3 + L * gap * gap) / (4 * (L + R) ** 2)
    return total


def assert_edge_data_is_exact(g):
    """R and both arms of every edge at every base, against the exact route.

    Each value must be within 1e-9 of the largest exact resistance from
    either endpoint of its edge.  The graph must be bridgeless.
    """
    per_base = [all_edge_circuit_data(g, p) for p in range(g.vertex_count)]
    for i, (a, b, _) in enumerate(g.edges):
        K = exact_deleted_inverse(g.vertex_count, g.edges, i)
        to_a, to_b = exact_resistances_to(K, a), exact_resistances_to(K, b)
        R = to_b[a]
        scale = max(to_a + to_b)
        for p, c in enumerate(per_base):
            arm = (to_a[p] + R - to_b[p]) / 2
            for got, want in ((c.resistance[i], R), (c.arm_first[i], arm), (c.arm_second[i], R - arm)):
                assert abs(Fraction(got) - want) <= Fraction(1e-9) * scale, (g, i, p)


def random_regular_graph(rng, n, lengths):
    """A connected random multigraph on n vertices, every degree 6, no loops."""
    while True:
        stubs = [v for v in range(n) for _ in range(6)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if any(a == b for a, b in pairs):
            continue
        try:
            return build_graph(n, [(a, b, lengths()) for a, b in pairs])
        except DisconnectedGraph:
            continue


def explicit_route(g):
    """Every non-bridge edge's data from a dense inverse of its deleted-edge matrix.

    Each matrix is the grounded Laplacian of the graph without the edge.
    Each resistance is read as K[x,x] + K[v,v] - 2 K[x,v] from the column
    of the endpoint v.
    """
    bridges = g.bridges()
    n = g.vertex_count
    to_first = [None] * g.edge_count
    to_second = [None] * g.edge_count
    for i, (a, b, _) in enumerate(g.edges):
        if a == b or i in bridges:
            continue
        K = np.zeros((n, n))
        K[1:, 1:] = np.linalg.inv(circuit._laplacian(delete_edge(g, i))[1:, 1:])
        d = np.diag(K)
        to_first[i] = d + d[a] - 2.0 * K[:, a]
        to_second[i] = d + d[b] - 2.0 * K[:, b]
    return to_first, to_second


def near_bridge_graph(rng, short, long, core=8):
    """A 6-regular core on vertices 0..c-1 plus the cycle c-1, c, c+1, c+2, c-1 (c = core).

    The cycle's last edge (c-1, c+2), the near-bridge, has length ``short``;
    the path around it has three edges of length ``long``.  Returns the
    graph and the near-bridge's edge index.
    """
    c = core
    hub = random_regular_graph(rng, c, lambda: 10.0 ** rng.uniform(-1.0, 1.0))
    edges = list(hub.edges) + [(c - 1, c, long), (c, c + 1, long), (c + 1, c + 2, long), (c - 1, c + 2, short)]
    return build_graph(c + 3, edges), len(edges) - 1


def wide_spread_k4s(s):
    """K4 with lengths (1, s, 1/s, 1, 1, s) in each of its 60 distinct orders."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    orders = sorted(set(itertools.permutations((1.0, s, 1.0 / s, 1.0, 1.0, s))))
    assert len(orders) == 60
    return [build_graph(4, [(a, b, L) for (a, b), L in zip(pairs, lengths)]) for lengths in orders]


def test_relative_residual_accepts_wide_length_spreads():
    # An absolute residual check rejected some of these orders as singular,
    # and a deleted-edge Laplacian assembled by sums did so from s = 1e10.
    for s in (1e6, 1e8, 1e10, 1e14):
        for g in wide_spread_k4s(s):
            exact = exact_tau(g)
            assert abs(Fraction(tau(g)) - exact) <= Fraction(1e-12) * exact, (s, g.edges)


def test_effective_resistance_matches_exact_rationals_at_wide_spreads():
    for s in (1e6, 1e8, 1e10, 1e14):
        for g in wide_spread_k4s(s):
            K = exact_deleted_inverse(4, g.edges, skip=-1)
            for x, y in itertools.combinations(range(4), 2):
                want = K[x][x] + K[y][y] - 2 * K[x][y]
                got = effective_resistance(g, x, y)
                assert abs(Fraction(got) - want) <= Fraction(1e-14) * want, (s, g.edges, x, y)


def test_rank_one_matches_explicit_route():
    rng = random.Random(8128)
    for n in (circuit.RANK_ONE_MIN_VERTICES, 15, 20, 40, 80, 120):
        g = random_regular_graph(rng, n, lambda: 10.0 ** rng.uniform(-1.0, 1.0))
        per_base = [all_edge_circuit_data(g, p) for p in range(n)]
        for i, (to_a, to_b) in enumerate(zip(*explicit_route(g))):
            a = g.edges[i][0]
            R = to_b[a]
            scale = max(to_a.max(), to_b.max())
            for p, c in enumerate(per_base):
                arm = (to_a[p] + R - to_b[p]) / 2
                for got, want in ((c.resistance[i], R), (c.arm_first[i], arm), (c.arm_second[i], R - arm)):
                    assert abs(got - want) <= 1e-12 * scale, (n, i, p)


def test_deleted_edge_inverses_memory_is_quadratic_in_vertices():
    # 60 vertices, two parallel edges per pair: m = 3,540, K is 29 KB.
    # Per-edge n-float columns would hold 2 n m floats (3.4 MB).
    rng = random.Random(60)
    pairs = itertools.combinations(range(60), 2)
    g = build_graph(60, [(a, b, rng.uniform(0.1, 10.0)) for a, b in pairs for _ in range(2)])
    assert g.edge_count == 3540
    g.bridges()
    tracemalloc.start()
    try:
        closed = circuit._deleted_edge_inverses(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak
    assert closed is not None and closed[-1] == []


def test_rank_one_matches_exact_rationals_at_wide_spreads():
    rng = random.Random(1729)
    graphs = []
    for spread in (1.0, 1e2, 1e4, 1e6, 1e8):
        n = circuit.RANK_ONE_MIN_VERTICES + rng.randrange(2)
        # Integer lengths log-uniform in [1, spread]: exact as floats.
        graphs.append(random_regular_graph(rng, n, lambda: float(round(spread ** rng.random()))))
    graphs.append(near_bridge_graph(rng, 1e-3, 1e4)[0])
    for g in graphs:
        assert g.vertex_count >= circuit.RANK_ONE_MIN_VERTICES
        assert_edge_data_is_exact(g)


def test_near_bridge_takes_the_gth_route(monkeypatch):
    routed = set()
    gth_stars = circuit._gth_stars

    def recording(g, base, wanted):
        routed.update(wanted)
        return gth_stars(g, base, wanted)

    monkeypatch.setattr(circuit, "_gth_stars", recording)
    rng = random.Random(31)
    graph, near_bridge = near_bridge_graph(rng, 1e-3, 1e4)
    for p in range(graph.vertex_count):
        all_edge_circuit_data(graph, p)
    assert routed == {near_bridge}

    routed.clear()
    graph = random_regular_graph(rng, 40, lambda: 10.0 ** rng.uniform(-1.0, 1.0))
    all_edge_circuit_data(graph, 0)
    assert routed == set()

    # Below RANK_ONE_MIN_VERTICES every edge but the bridges and loops.
    graph = build_graph(5, [
        (0, 1, 1.0), (0, 1, 2.5), (1, 2, 0.7), (1, 2, 3.0), (2, 0, 1.3),
        (2, 3, 0.4), (3, 3, 2.0), (3, 4, 1.1), (2, 2, 0.9), (0, 3, 5.0),
    ])
    all_edge_circuit_data(graph, 4)
    assert routed == {0, 1, 2, 3, 4, 5, 9}


def test_closed_form_picks_the_route():
    calls = circuit._deleted_edge_inverses.cache_info()
    small = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
    assert circuit.closed_form(small) is None
    assert circuit._deleted_edge_inverses.cache_info() == calls  # nothing asked under the size rule
    n = circuit.RANK_ONE_MIN_VERTICES
    tree = build_graph(n, [(v, v + 1, 1.0) for v in range(n - 1)] + [(0, 0, 2.0)])
    assert circuit.closed_form(tree) is None  # no edge is routed
    g = random_regular_graph(random.Random(5), n, lambda: 1.0)
    data = circuit.closed_form(g)
    assert data is not None and data is circuit._deleted_edge_inverses(g)


def named(node):
    """Every name that node reads, as attribute or import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from (sub.name, sub.asname)


def package_sources():
    """Every module of the package, parsed, by file name."""
    package = Path(circuit.__file__).parent
    return {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def test_only_closed_form_reads_the_route_rule():
    # The route is decided in one place.  No module but circuit names the
    # size rule or the closed-form builder, and inside circuit only
    # closed_form reads either.
    rule = {"RANK_ONE_MIN_VERTICES", "_deleted_edge_inverses"}
    sources = package_sources()
    for name, tree in sources.items():
        if name != "circuit.py":
            assert not rule & set(named(tree)), name
    functions = [node for node in sources["circuit.py"].body if isinstance(node, ast.FunctionDef)]
    assert {fn.name for fn in functions if rule & set(named(fn))} == {"closed_form"}


def test_only_the_edge_record_cuts_the_catalogs_surgeries():
    # One function decides which surgery graphs an edge has and how long
    # they live: inside the package only invariants.edge_record names the
    # contraction, deletion and loop memos.  identities binds them at module
    # level, for the benchmark's tracer, and none of its functions names
    # them; the per-edge crossing memo is gone.
    surgeries = {"_contract", "_delete", "_loopify"}
    for name, tree in package_sources().items():
        assert "_edge_crossing" not in set(named(tree)), name
        users = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and surgeries & set(named(fn))}
        assert users == ({"edge_record"} if name == "invariants.py" else set()), (name, users)


def forms_a_key(node):
    """Whether node's code (its annotations aside) names frozenset or joins a key with |."""
    def joins(sub):
        if isinstance(sub, ast.BinOp | ast.AugAssign) and isinstance(sub.op, ast.BitOr):
            operands = (sub.left, sub.right) if isinstance(sub, ast.BinOp) else (sub.target, sub.value)
            return any(isinstance(o, ast.Set) or "key" in getattr(o, "id", "") for o in operands)
        return False

    code = node.body if isinstance(node, ast.FunctionDef) else [node]
    return any(
        (isinstance(sub, ast.Name) and sub.id == "frozenset") or joins(sub)
        for statement in code
        for sub in ast.walk(statement)
    )


def test_only_the_lattice_builder_knows_its_nodes():
    # The contraction lattice's builder alone forms node keys; the walks
    # read child positions.  No module names the old per-node edge ids or
    # the root rebuilder, and inside invariants only the builder, _lattice,
    # names frozenset or joins a key with |.
    gone = {"original_ids", "lattice_node"}
    for name, tree in package_sources().items():
        defined = {
            sub.name for sub in ast.walk(tree)
            if isinstance(sub, ast.FunctionDef | ast.ClassDef)
        } | {sub.arg for sub in ast.walk(tree) if isinstance(sub, ast.keyword | ast.arg)}
        assert not gone & (set(named(tree)) | defined), name
    body = package_sources()["invariants.py"].body
    functions = {node.name: node for node in body if isinstance(node, ast.FunctionDef)}
    assert {name for name, fn in functions.items() if forms_a_key(fn)} == {"_lattice"}
    for walk in ("nested_weighted_sum", "tau_oracle_contraction", "admissible_leaf_nodes"):
        assert not forms_a_key(functions[walk]), walk
    others = [node for node in body if not isinstance(node, ast.FunctionDef)]
    assert not any(forms_a_key(node) for node in others)


def test_the_lattice_has_one_size_guard():
    # Every walk of the contraction lattice is guarded by the builder's node
    # count alone: only invariants._lattice reads LATTICE_NODE_CAP, beside
    # its definition; NESTED_VERTEX_CAP, an accuracy cap of the nested
    # rows, lives in identities; and no vertex cap for the oracles is left.
    sources = package_sources()
    readers = set()
    for name, tree in sources.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and "LATTICE_NODE_CAP" in named(node.targets[0]):
                continue
            if "LATTICE_NODE_CAP" in named(node):
                readers.add((name, getattr(node, "name", None)))
        assert "ORACLE_VERTEX_CAP" not in named(tree), name
        if name != "identities.py":
            assert "NESTED_VERTEX_CAP" not in named(tree), name
    assert readers == {("invariants.py", "_lattice")}
    assert "NESTED_VERTEX_CAP" in named(sources["identities.py"])


def test_numpy_and_the_column_builder_stay_in_their_layers():
    # Only the circuit imports numpy, inside the functions that use it and
    # never at module level, and the per-edge columns are built in one
    # place: invariants imports all_edge_circuit_data and only _profile_at
    # calls it.
    importers, top_level, readers = set(), set(), set()
    for name, tree in package_sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "numpy" for module in modules):
                importers.add(name)
                if node in tree.body:
                    top_level.add(name)
            if "all_edge_circuit_data" in named(node):
                readers.add((name, "import"))
        for node in tree.body:
            if isinstance(node, ast.Import | ast.ImportFrom):
                continue
            if "all_edge_circuit_data" in named(node):
                readers.add((name, getattr(node, "name", None)))
    assert importers == {"circuit.py"}
    assert not top_level
    assert readers == {("invariants.py", "import"), ("invariants.py", "_profile_at")}
    # The guard's epsilon is numpy's, bit for bit, without importing numpy.
    assert circuit._EPS == np.finfo(float).eps


def test_every_memo_lives_with_its_graph():
    # One memo layer: what is cached is held by a graph (graph_memo, or a
    # cached_property of MetrizedGraph), so no module keeps a table of its
    # own through weakref or functools' lru_cache and cache.
    caches = {"lru_cache", "cache"}
    for name, tree in package_sources().items():
        functools_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.split(".")[0] != "weakref", name
                    if alias.name == "functools":
                        functools_names.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "weakref", name
                if node.module == "functools":
                    assert not caches & {alias.name for alias in node.names}, name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert not (node.value.id in functools_names and node.attr in caches), name


def run_fresh(code, *args):
    """Run code in a fresh interpreter that imports taulab from this checkout; fails on a nonzero exit."""
    env = {name: value for name, value in os.environ.items() if name != "TAULAB_TOL"}
    env["PYTHONPATH"] = str(Path(circuit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_and_its_cli_loads_no_numpy():
    run_fresh("import sys, taulab, taulab.cli; assert 'numpy' not in sys.modules")


def test_importing_the_package_defers_the_identity_catalog():
    run_fresh(
        "import sys, taulab\n"
        "assert 'taulab.identities' not in sys.modules\n"
        "from taulab import verify\n"
        "from taulab.identities import verify as direct\n"
        "assert verify is direct and taulab.verify_all is sys.modules['taulab.identities'].verify_all\n"
        "assert {'IdentityReport', 'identity_ids', 'verify', 'verify_all'} <= set(taulab.__all__)\n"
        "assert not hasattr(taulab, 'no_such_name')\n"
    )


# Run with numpy blocked (None in sys.modules makes every import of it raise
# ImportError) on the graph files named in argv: the library's profiles at
# every base, tau and verify_all, then the CLI's verify, invariants and fuzz.
# Last, tau on a 10-vertex cycle must raise ImportError, which shows the
# block holds.
NO_NUMPY_SCRIPT = """
import contextlib, io, sys
sys.modules["numpy"] = None
from taulab import build_graph, cli, identities, invariants
from taulab.circuit import RANK_ONE_MIN_VERTICES
exits = set()
with contextlib.redirect_stdout(io.StringIO()):
    for path in sys.argv[1:]:
        with open(path) as handle:
            g = cli.parse_graph(handle.read())
        assert g.vertex_count < RANK_ONE_MIN_VERTICES
        for base in range(g.vertex_count):
            invariants.graph_profile(g, base)
        invariants.tau(g)
        identities.verify_all(g)
        exits.add(cli.main(["verify", path, "--ids", "all"]))
        exits.add(cli.main(["invariants", path]))
    exits.add(cli.main(["fuzz", "--count", "20"]))
assert exits <= {cli.EXIT_OK, cli.EXIT_CHECK_FAILED}, exits
cycle = build_graph(RANK_ONE_MIN_VERTICES, [(v, (v + 1) % RANK_ONE_MIN_VERTICES, 1.0)
                                            for v in range(RANK_ONE_MIN_VERTICES)])
try:
    invariants.tau(cycle)
except ImportError:
    pass
else:
    raise AssertionError("a closed-form solve ran with numpy blocked")
assert sys.modules["numpy"] is None
assert not [name for name in sys.modules if name.startswith("numpy.")]
print("no numpy")
"""


def test_the_all_gth_route_uses_no_numpy(tmp_path):
    graphs = wide_spread_multigraphs(random.Random(7070), 40)
    assert any(g.bridges() for g in graphs)
    assert any(a == b for g in graphs for a, b, _ in g.edges)
    assert any(len({(a, b) for a, b, _ in g.edges}) < g.edge_count for g in graphs)
    paths = []
    for k, g in enumerate(graphs):
        path = tmp_path / f"g{k}.graph"
        path.write_text(serialize_graph(g), encoding="utf-8")
        paths.append(str(path))
    assert run_fresh(NO_NUMPY_SCRIPT, *paths) == "no numpy\n"


def test_a_closed_form_graph_builds_its_record_and_edge_arrays_once(monkeypatch):
    # The closed-form route's base-free state is one record per graph,
    # built at the first base from one array view of the edges and read
    # by every other base, the profile's terms included.
    views = []
    edge_view = circuit._edge_view

    def counting(g):
        views.append(g)
        return edge_view(g)

    monkeypatch.setattr(circuit, "_edge_view", counting)
    rng = random.Random(3030)
    g = random_regular_graph(rng, 12, lambda: 10.0 ** rng.uniform(-1.0, 1.0))
    before = circuit._deleted_edge_inverses.cache_info()
    for base in range(g.vertex_count):
        invariants.graph_profile(g, base)
    after = circuit._deleted_edge_inverses.cache_info()
    assert circuit.closed_form(g) is not None
    assert after.misses - before.misses == 1
    assert len(views) == 1 and views[0] is g


def gth_star(g, edge, base):
    """Star arms at the endpoints a, b of a non-bridge edge, in G minus that edge, toward base.

    The per-edge reference for the pair reductions: G - e itself is reduced
    onto {a, b, base}, leaving a triangle with conductances g_ab (possibly
    0), g_ap and g_bp; its star has arm_a = g_bp / D and arm_b = g_ap / D
    with D = g_ab g_ap + g_ab g_bp + g_ap g_bp.  A base at an endpoint
    leaves the two-terminal case: arm 0 there, 1/g_ab at the other.
    """
    a, b, _ = g.edges[edge]
    cond = circuit._conductances(g.vertex_count, g.edges[:edge] + g.edges[edge + 1:])
    circuit._eliminate(cond, {a, b, base})
    if base in (a, b):
        r = 1.0 / cond[a][b]
        return (0.0, r) if base == a else (r, 0.0)
    g_ab = cond[a].get(b, 0.0)
    g_ap = cond[a].get(base, 0.0)
    g_bp = cond[b].get(base, 0.0)
    d = g_ab * g_ap + g_ab * g_bp + g_ap * g_bp
    return g_bp / d, g_ap / d


def assert_gth_columns_match_the_per_edge_reference(g):
    """Every GTH edge's R and arms equal gth_star's at every base; returns how many edges that is."""
    data = circuit.closed_form(g)
    if data is None:
        routed = [i for i, (a, b, _) in enumerate(g.edges) if a != b and i not in g.bridges()]
    else:
        routed = data[-1]  # the ids of the edges left to GTH
    for base in range(g.vertex_count):
        c = all_edge_circuit_data(g, base)
        for i in routed:
            first, second = gth_star(g, i, base)
            got = (c.arm_first[i], c.arm_second[i], c.resistance[i])
            assert got == (first, second, first + second), (g.edges, i, base)
    return len(routed)


def test_pair_reductions_match_the_per_edge_reference_on_fuzz_multigraphs():
    graphs = wide_spread_multigraphs(random.Random(6060), 80)
    # double_adjusted doubles every edge, so every pair has a parallel twin.
    graphs += [double_adjusted(g) for g in graphs]
    shared = 0
    for g in graphs:
        assert g.vertex_count < circuit.RANK_ONE_MIN_VERTICES
        assert_gth_columns_match_the_per_edge_reference(g)
        pairs = [frozenset((a, b)) for i, (a, b, _) in enumerate(g.edges) if a != b and i not in g.bridges()]
        shared += len(pairs) - len(set(pairs))
    assert shared > 500


def test_pair_reduction_replays_a_closed_form_twin():
    # The near-bridge (c-1, c+2) is rejected by the closed-form guard; its
    # long parallel twin takes the closed form.  G - near-bridge still holds
    # the twin, so the shared reduction must add the twin's conductance.
    rng = random.Random(17)
    g, near_bridge = near_bridge_graph(rng, 1e-3, 1e4)
    a, b, _ = g.edges[near_bridge]
    g = build_graph(g.vertex_count, g.edges + ((b, a, 2e4), (b, b, 3.0)))
    twin = g.edge_count - 2
    closed = circuit._deleted_edge_inverses(g)
    assert g.vertex_count >= circuit.RANK_ONE_MIN_VERTICES and closed is not None
    assert near_bridge in closed[-1] and twin not in closed[-1]
    assert assert_gth_columns_match_the_per_edge_reference(g) == 1


def test_deleted_unit_edge_beside_a_1e20_edge_matches_exact_rationals():
    # Vertex 1 hangs off vertex 0 by a unit edge and a 1e20 edge.  Without
    # the unit edge, a grounded Laplacian assembled by sums has the row
    # (1 + 1e-20) - 1 = 0 for vertex 1 and is singular in floating point,
    # though the network is well posed.
    rng = random.Random(99)
    core = random_regular_graph(rng, circuit.RANK_ONE_MIN_VERTICES, lambda: 1.0)
    edges = [(a + 1 if a else 0, b + 1 if b else 0, L) for a, b, L in core.edges]
    g = build_graph(core.vertex_count + 1, edges + [(0, 1, 1.0), (0, 1, 1e20)])
    assert_edge_data_is_exact(g)


# -- per-edge columns ---------------------------------------------------------


def reference_profile(g, base):
    """The per-edge scalar loop graph_profile ran before its terms became columns."""
    z_terms, r_terms, x_terms, y_terms, w_res, w_len = [], [], [], [], [], []
    columns = (np.asarray(column).tolist() for column in all_edge_circuit_data(g, base)[:3])
    for i, ((a, b, L), R, arm_first, arm_second) in enumerate(zip(g.edges, *columns)):
        if a == b:
            z_terms.append(L)
            w_res.append(0.0)
            w_len.append(1.0)
        elif i in g.bridges():
            z_terms.append(0.0)
            r_terms.append(L)
            y_terms.append(L)
            w_res.append(1.0)
            w_len.append(0.0)
        else:
            denom = L + R
            gap = arm_first - arm_second
            z_terms.append(L * L / denom)
            r_terms.append(L * R / denom)
            sq = denom * denom
            y_terms.append((0.25 * L * R * R + 0.75 * L * gap * gap) / sq)
            x_terms.append((L * L * R + 0.75 * L * R * R - 0.75 * L * gap * gap) / sq)
            w_res.append(R / denom)
            w_len.append(L / denom)
    x, y = math.fsum(x_terms), math.fsum(y_terms)
    ell = g.total_length
    return {
        "tau": ell / 12.0 - x / 6.0 + y / 6.0, "x": x, "y": y,
        "z": math.fsum(z_terms), "r": math.fsum(r_terms),
        "z_terms": tuple(z_terms), "weight_resistance": tuple(w_res), "weight_length": tuple(w_len),
    }


def assert_profile_is_bit_identical(g, bases):
    for base in bases:
        prof = invariants.graph_profile(g, base)
        for name, want in reference_profile(g, base).items():
            got = getattr(prof, name)
            if isinstance(got, np.ndarray):
                got = tuple(got.tolist())
            assert got == want, (name, base, g.vertex_count)


def wide_spread_multigraphs(rng, count):
    """Fuzz multigraphs (loops, bridges, parallel edges), lengths log-uniform over spreads 1e2-1e8."""
    graphs = []
    for _ in range(count):
        g = random_connected_multigraph(rng, 6, 12)
        spread = 10.0 ** rng.uniform(2.0, 8.0)
        graphs.append(build_graph(g.vertex_count, [(a, b, spread ** rng.random()) for a, b, _ in g.edges]))
    return graphs


def test_profile_columns_match_the_scalar_loop_on_fuzz_multigraphs():
    graphs = wide_spread_multigraphs(random.Random(1010), 80)
    assert any(g.bridges() for g in graphs)
    assert any(a == b for g in graphs for a, b, _ in g.edges)
    assert any(len({(a, b) for a, b, _ in g.edges}) < g.edge_count for g in graphs)
    for g in graphs:
        assert_profile_is_bit_identical(g, range(g.vertex_count))


def test_profile_columns_match_the_scalar_loop_on_regular_graphs():
    rng = random.Random(2020)
    for n in (10, 11, 20, 40, 80, 120):
        g = random_regular_graph(rng, n, lambda: 10.0 ** rng.uniform(-1.0, 1.0))
        # Every edge takes the closed form here.
        assert not np.isnan(circuit._deleted_edge_inverses(g)[0]).any()
        assert_profile_is_bit_identical(g, range(n))


def test_profile_columns_match_the_scalar_loop_on_large_multigraphs():
    # 10 vertices and more take the closed form and the column-wise terms:
    # a 6-regular core plus self-loops, pendant bridges and parallel copies.
    rng = random.Random(4040)
    for n in (circuit.RANK_ONE_MIN_VERTICES, 13, 17):
        core = random_regular_graph(rng, n, lambda: 10.0 ** rng.uniform(-2.0, 2.0))
        edges = list(core.edges)
        edges += [(v, v, 10.0 ** rng.uniform(-2.0, 2.0)) for v in rng.sample(range(n), 3)]
        edges += [(v, n + k, 10.0 ** rng.uniform(-2.0, 2.0)) for k, v in enumerate(rng.sample(range(n), 2))]
        edges += [(b, a, 10.0 ** rng.uniform(-2.0, 2.0)) for a, b, _ in rng.sample(core.edges, 4)]
        g = build_graph(n + 2, edges)
        assert circuit._deleted_edge_inverses(g) is not None
        assert len(g.bridges()) == 2
        assert_profile_is_bit_identical(g, range(g.vertex_count))


def test_profile_columns_match_the_scalar_loop_beside_a_near_bridge():
    # 203 vertices: the 1e-3 edge takes GTH and every other edge the closed
    # form.  GTH costs tens of ms per base here, so a spread of bases is
    # checked: every tenth vertex and each vertex of the cycle.
    g, near_bridge = near_bridge_graph(random.Random(203), 1e-3, 1e4, core=200)
    assert circuit._deleted_edge_inverses(g)[-1] == [near_bridge]
    assert_profile_is_bit_identical(g, sorted(set(range(0, 203, 10)) | {199, 200, 201, 202}))


def test_profile_columns_match_the_scalar_loop_on_a_loop_only_vertex():
    g = build_graph(1, [(0, 0, 1.5), (0, 0, 1e-4), (0, 0, 7.0)])
    assert_profile_is_bit_identical(g, [0])
    assert invariants.graph_profile(g).z == g.total_length


def test_z_terms_hold_a_loop_exactly_and_zero_at_bridges():
    # L * L / L is not L at L = 0.1: a loop's z-term is its length itself,
    # on the all-GTH route and on the closed-form one, and a bridge's is 0.
    assert 0.1 * 0.1 / 0.1 != 0.1
    core = random_regular_graph(random.Random(42), 11, lambda: 1.0)
    closed = build_graph(12, core.edges + ((3, 3, 0.1), (5, 11, 2.0)))
    assert circuit.closed_form(closed) is not None and closed.bridges() == {closed.edge_count - 1}
    for g in (build_graph(1, [(0, 0, 0.1), (0, 0, 2.5)]), closed):
        prof = invariants.graph_profile(g)
        loops = [i for i, (a, b, _) in enumerate(g.edges) if a == b]
        assert [prof.z_terms[i] for i in loops] == [g.edges[i][2] for i in loops] and 0.1 in prof.z_terms
        assert all(prof.z_terms[i] == 0.0 for i in g.bridges())
        assert math.fsum(prof.z_terms) == prof.z


def test_columns_hold_loop_limits_and_mask_bridges_at_every_base():
    graphs = wide_spread_multigraphs(random.Random(3030), 30)
    assert sum(len(g.bridges()) for g in graphs) > 0
    assert any(a == b for g in graphs for a, b, _ in g.edges)
    for g in graphs:
        loop = np.array([a == b for a, b, _ in g.edges])
        bridge = np.isin(np.arange(g.edge_count), list(g.bridges()))
        for base in range(g.vertex_count):
            c = all_edge_circuit_data(g, base)
            assert c._fields == ("resistance", "arm_first", "arm_second", "arm_base")
            for column in map(np.asarray, c):
                assert (column[loop] == 0.0).all(), (g.edges, base)
                assert np.isnan(column[bridge]).all(), (g.edges, base)
                assert np.isfinite(column[~bridge]).all(), (g.edges, base)


def test_two_vertex_cores_mirror_their_bases_bit_for_bit():
    # Nothing is eliminated on two vertices, so each edge's star toward
    # base 1 is its star toward base 0 reversed, in the same bits.
    rng = random.Random(28)
    for _ in range(200):
        edges = [(0, 1) if rng.random() < 0.5 else (1, 0) for _ in range(rng.randint(1, 6))]
        edges += [(p, p) for p in (0, 1) if rng.random() < 0.5]
        g = build_graph(2, [(a, b, 10.0 ** rng.uniform(-8.0, 8.0)) for a, b in edges])
        toward_0, toward_1 = all_edge_circuit_data(g, 0), all_edge_circuit_data(g, 1)
        assert repr(toward_1) == repr(toward_0._replace(arm_first=toward_0.arm_second,
                                                        arm_second=toward_0.arm_first)), g.edges


def test_profile_columns_are_read_only_and_outside_eq_and_repr():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (2, 2, 1.0), (0, 1, 0.5)])
    closed = random_regular_graph(random.Random(5), circuit.RANK_ONE_MIN_VERTICES, lambda: 1.0)
    assert circuit.closed_form(g) is None and circuit.closed_form(closed) is not None
    # The all-GTH route holds tuples of Python floats, the closed-form
    # route read-only float64 arrays.
    for graph, layout, value, refusal in ((g, tuple, float, TypeError), (closed, np.ndarray, np.float64, ValueError)):
        prof = invariants.graph_profile(graph, 1)
        # The arm at the base is kept on the all-GTH route only.
        assert (prof.columns.arm_base is None) == (graph is closed)
        for column in (*(c for c in prof.columns if c is not None), prof.z_terms, prof.weight_resistance,
                       prof.weight_length):
            assert type(column) is layout and len(column) == graph.edge_count
            assert {type(entry) for entry in column} == {value}
            with pytest.raises(refusal):
                column[0] = 0.0
        assert "columns" not in repr(prof) and "weight" not in repr(prof) and "z_terms" not in repr(prof)
        again = invariants._profile_at.__wrapped__(graph, 1)
        assert prof == again and hash(prof) == hash(again)


def closed_form_catalog_graphs():
    """6-regular graphs of 12, 20 and 40 vertices, and one with loops, pendant bridges and a near-bridge."""
    rng = random.Random(2626)
    found = [random_regular_graph(rng, n, lambda: 10.0 ** rng.uniform(-1.0, 1.0)) for n in (12, 20, 40)]
    g, near_bridge = near_bridge_graph(rng, 1e-3, 1e4)
    n = g.vertex_count
    edges = list(g.edges) + [(v, v, 10.0 ** rng.uniform(-2.0, 2.0)) for v in rng.sample(range(n), 3)]
    edges += [(v, n + k, 10.0 ** rng.uniform(-2.0, 2.0)) for k, v in enumerate(rng.sample(range(n), 2))]
    g = build_graph(n + 2, edges)
    assert len(g.bridges()) == 2 and circuit.closed_form(g)[-1] == [near_bridge]
    return found + [g]


def test_catalog_reports_are_the_same_from_arrays_and_from_tuples(monkeypatch):
    # The closed-form route keeps its per-edge data as float64 arrays.
    # verify_all must report the same bytes as from tuples of Python
    # floats, the layout its profiles held before: a fresh copy of each
    # graph is checked with every profile's per-edge fields turned into
    # tuples.
    graphs = closed_form_catalog_graphs()
    arrays = [repr(verify_all(g)) for g in graphs]
    for g in graphs:
        assert circuit.closed_form(g) is not None
        assert type(invariants.graph_profile(g).weight_resistance) is np.ndarray
    profile_at = invariants._profile_at.__wrapped__

    def as_tuples(g, base):
        prof = profile_at(g, base)

        def listed(column):
            return tuple(np.asarray(column).tolist())

        return dataclasses.replace(
            prof, z_terms=listed(prof.z_terms), weight_resistance=listed(prof.weight_resistance),
            weight_length=listed(prof.weight_length),
            columns=circuit.EdgeColumns(*map(listed, prof.columns[:3])),
        )

    monkeypatch.setattr(invariants, "_profile_at", graph_memo(as_tuples))
    fresh = [MetrizedGraph(g.vertex_count, g.edges) for g in graphs]
    assert [repr(verify_all(g)) for g in fresh] == arrays
    assert all(type(invariants.graph_profile(g).weight_resistance) is tuple for g in fresh)


def test_public_scalars_are_python_floats_on_both_routes():
    gth = build_graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 0.5), (1, 2, 1.5), (1, 3, 3.0), (2, 3, 0.7), (1, 2, 4.0)])
    closed = closed_form_catalog_graphs()[0]
    assert circuit.closed_form(gth) is None and circuit.closed_form(closed) is not None
    for g in (gth, closed):
        assert g.is_bridgeless()
        values = [tau(g), invariants.K_of(g, 0), invariants.K_definition(g, 0), invariants.K_contraction_form(g, 0),
                  invariants.A_pq(g, 0, 1), invariants.w_of(g)]
        inv = invariants.invariant_set(g)
        values += [inv.ell, inv.tau, inv.x, inv.y, inv.z, inv.r, inv.w]
        assert [type(value) for value in values] == [float] * len(values), g.vertex_count


def test_laplacian_matches_the_edge_loop_with_parallel_edges_both_ways():
    rng = random.Random(404)
    for _ in range(40):
        n = rng.randint(2, 12)
        edges = []
        for _ in range(rng.randint(1, 40)):
            a, b = rng.randrange(n), rng.randrange(n)
            length = 10.0 ** rng.uniform(-8.0, 8.0)
            edges += [(a, b, length), (b, a, 10.0 ** rng.uniform(-8.0, 8.0))]
        rng.shuffle(edges)
        # Unchecked: the random edges need not connect the vertices.
        g = MetrizedGraph._unchecked(n, tuple(edges))
        assert np.array_equal(circuit._laplacian(g), loop_laplacian(n, edges))
    assert np.array_equal(circuit._laplacian(MetrizedGraph(1, ())), np.zeros((1, 1)))
