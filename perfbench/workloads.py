"""Inputs and operations of the three benchmark workloads.

Every workload is a deterministic list of graphs made from the seed alone,
written to plain graph files, and one operation per graph:

* ``catalog``: fuzz-generator multigraphs (at most 6 vertices, 12 edges;
  loops, parallel edges and bridges included) with a per-graph length
  spread from 1e2 to 1e8, each run through ``taulab verify --ids all`` and
  ``taulab invariants`` in-process.
* ``cli_invariants``: ``taulab invariants`` on random 6-regular multigraphs
  (3 edges per vertex), n on a ladder from 40 to 120.
* ``tau_sweep``: library ``taulab.tau`` on random 6-regular multigraphs,
  n on a ladder from 120 to 280 that straddles the switch from batched to
  looped deleted-edge inverses (n near 235).

The number of graphs follows from ``--seconds`` through a cost estimate
calibrated on a 2-core x86-64 box, so the same seed and seconds always give
the same graphs, the same failed share and the same output digests.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import time
import traceback
from dataclasses import dataclass, field

CATALOG_GRAPHS_PER_S = 30.0
CATALOG_POOL = 4
CATALOG_MIN_SPREAD = 1e2
CATALOG_MAX_SPREAD = 1e8
# The middle size appears three times per pass, so the median latency is
# taken among several graphs of one size instead of from one or two.
CLI_LADDER = (40, 60, 80, 80, 80, 100, 120)
# Seconds per graph at n, for cli_invariants (vertex connectivity, ~n^3)
# and tau_sweep (m dense (n-1)^2 inverses).
CLI_COST_PER_N3 = 2.2e-6
TAU_LADDER = (120, 150, 195, 195, 195, 245, 280)
TAU_COST_PER_N3 = 2.7e-7
EDGES_PER_VERTEX = 3

WORKLOADS = ("catalog", "cli_invariants", "tau_sweep")
# How strongly each workload's times follow the host slowdown that speed.py's
# probe shows: times are divided by slowdown ** exponent.  Fitted on a 2-core
# x86-64 box to the raw timings of sets of ten 25 s runs per workload, taken
# at host slowdowns from 1.0 to 2.1: of the exponents 0 to 1 in steps of
# 0.25, these gave the smallest spread in the worst set.  All three kinds of
# work (catalog's interpreter work, cli_invariants' max-flows, tau_sweep's
# LAPACK) slowed less than the probe did.
HOST_EXPONENT = {"catalog": 0.75, "cli_invariants": 0.5, "tau_sweep": 0.5}


@dataclass
class Item:
    """One graph of a workload: its file text and, after loading, the graph."""

    index: int
    text: str
    vertices: int
    graph: object = None


@dataclass
class Outcome:
    """What one timed operation produced."""

    seconds: float
    codes: list[int] = field(default_factory=list)
    stdout: list[str] = field(default_factory=list)
    error: str | None = None
    tau: float | None = None


def graph_text(vertex_count: int, edges) -> str:
    lines = [f"graph {vertex_count}"]
    lines.extend(f"edge {a} {b} {length!r}" for a, b, length in edges)
    return "\n".join(lines) + "\n"


def with_spread(edges, spread: float):
    """Map fuzz lengths 10**u, u in [-1, 1], onto 10**(u * log10(spread) / 2).

    The result is log-uniform over a range whose max/min ratio is ``spread``;
    a spread of 1e2 leaves the fuzz lengths unchanged.
    """
    power = math.log10(spread) / 2.0
    return [(a, b, 10.0 ** (math.log10(length) * power)) for a, b, length in edges]


def _components_after(v: int, links, skip: int) -> int:
    parent = list(range(v))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = v
    for j, (a, b) in enumerate(links):
        ra, rb = find(a), find(b)
        if j != skip and ra != rb:
            parent[ra] = rb
            parts -= 1
    return parts


def _forest_count(v: int, links) -> int:
    """Edge sets of at most v-2 links that contain no cycle."""
    return sum(1 for k in range(max(0, v - 2) + 1) for subset in itertools.combinations(links, k)
               if _components_after(v, subset, -1) == v - k)


def cost_key(v: int, edges) -> tuple[bool, int]:
    """What a catalog graph's time mostly depends on.

    Bridgeless graphs run the nested-sum identities over the contraction
    lattice, whose nodes are the forests of at most v-2 edges.
    """
    links = [(a, b) for a, b, _ in edges if a != b]
    bridgeless = all(_components_after(v, links, j) == 1 for j in range(len(links)))
    return bridgeless, _forest_count(v, links)


def _catalog_items(seed: int, count: int) -> list[Item]:
    """A systematic sample of a pool CATALOG_POOL times larger, by cost_key.

    Every pool graph is taken with the same probability, so the sample has
    the fuzz generator's distribution, but its mix of cheap and costly
    graphs varies far less from seed to seed than a plain draw.
    """
    from taulab import fuzzing

    rng = random.Random(f"catalog:{seed}")
    pool = [fuzzing.random_connected_multigraph(rng, 6, 12) for _ in range(CATALOG_POOL * count)]
    pool.sort(key=lambda g: cost_key(g.vertex_count, g.edges))
    chosen = pool[rng.randrange(CATALOG_POOL)::CATALOG_POOL]
    rng.shuffle(chosen)
    lo, hi = math.log10(CATALOG_MIN_SPREAD), math.log10(CATALOG_MAX_SPREAD)
    items = []
    for index, g in enumerate(chosen):
        edges = with_spread(g.edges, 10.0 ** rng.uniform(lo, hi))
        items.append(Item(index, graph_text(g.vertex_count, edges), g.vertex_count))
    return items


def random_regular_edges(rng: random.Random, n: int):
    """A connected random multigraph with 3 edges per vertex (every degree 6).

    Stubs are paired at random and the draw repeated until it has no loop
    and is connected.  Every vertex then has the same degree, which keeps
    the vertex-connectivity work of one n nearly the same from seed to seed.
    """
    degree = 2 * EDGES_PER_VERTEX
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(a != b for a, b in pairs) and _components_after(n, pairs, -1) == 1:
            return [(a, b, 10.0 ** rng.uniform(-1.0, 1.0)) for a, b in pairs]


def _ladder_items(name: str, seed: int, sizes) -> list[Item]:
    rng = random.Random(f"{name}:{seed}")
    items = []
    for index, n in enumerate(sizes):
        edges = random_regular_edges(rng, n)
        items.append(Item(index, graph_text(n, edges), n))
    return items


def _ladder_sizes(ladder, cost_per_n3: float, seconds: float, max_passes: int) -> list[int]:
    """Whole passes over the ladder, as many as seconds allow at the calibrated cost.

    Whole passes keep every size equally often, so the median and the tail
    land inside a size class rather than on the edge between two.  When
    seconds do not cover one pass, the pass is cut short (at least one size).
    """
    costs = [cost_per_n3 * n ** 3 for n in ladder]
    passes = min(max_passes, int(seconds // sum(costs)))
    if passes:
        return list(ladder) * passes
    sizes, spent = [], 0.0
    for n, cost in zip(ladder, costs):
        if sizes and spent + cost > seconds:
            break
        sizes.append(n)
        spent += cost
    return sizes


def make_items(workload: str, seed: int, seconds: float) -> list[Item]:
    """The workload's graphs for this seed; the count follows from seconds."""
    if workload == "catalog":
        return _catalog_items(seed, max(1, round(CATALOG_GRAPHS_PER_S * seconds)))
    if workload == "cli_invariants":
        return _ladder_items(workload, seed, _ladder_sizes(CLI_LADDER, CLI_COST_PER_N3, seconds, 1000))
    if workload == "tau_sweep":
        # One pass at most: the seed's inverse cache keeps every graph's
        # m dense inverses, about 1.4 GB after the full ladder.
        return _ladder_items(workload, seed, _ladder_sizes(TAU_LADDER, TAU_COST_PER_N3, seconds, 1))
    raise ValueError(f"unknown workload {workload!r}")


def _cli_call(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_op(workload: str, item: Item, path: str, cli_main, tau) -> Outcome:
    """Run one graph's operation and time it.

    ``cli_main`` and ``tau`` are passed in so the tracer can put a span
    around each call.  An unexpected exception ends this graph only: it is
    kept as the outcome's error and the run goes on.
    """
    from taulab.errors import TauLabError

    outcome = Outcome(seconds=0.0)
    start = time.perf_counter()
    try:
        if workload == "catalog":
            calls = (["verify", path, "--ids", "all"], ["invariants", path])
        elif workload == "cli_invariants":
            calls = (["invariants", path],)
        else:
            calls = ()
            outcome.tau = tau(item.graph)
        for argv in calls:
            code, text = _cli_call(cli_main, argv)
            outcome.codes.append(code)
            outcome.stdout.append(text)
    except TauLabError:
        outcome.codes.append(2)  # a typed refusal, as the CLI's exit code 2
    except Exception:
        outcome.error = traceback.format_exc(limit=3)
    outcome.seconds = time.perf_counter() - start
    return outcome
