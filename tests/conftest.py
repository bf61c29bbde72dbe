import random

import pytest

from taulab.fuzzing import random_connected_multigraph
from taulab.graphs import build_graph


@pytest.fixture
def triangle():
    return build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])


@pytest.fixture
def k4():
    return build_graph(4, [
        (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
        (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0),
    ])


@pytest.fixture
def banana3():
    return build_graph(2, [(0, 1, 1.0), (0, 1, 1.0), (0, 1, 1.0)])


@pytest.fixture
def path2():
    # two unit edges in a row, the smallest tree with an interior vertex
    return build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def report_graphs():
    """Forty fuzz multigraphs of at most 6 vertices (loops, bridges, parallel
    edges), lengths log-uniform over spreads 1e2-1e8.  Below 10 vertices
    every resistance comes from GTH elimination in pure Python, so whatever
    is computed from them does not depend on the BLAS build."""
    rng = random.Random(4040)
    graphs = []
    for _ in range(40):
        g = random_connected_multigraph(rng, 6, 12)
        spread = 10.0 ** rng.uniform(2.0, 8.0)
        graphs.append(build_graph(g.vertex_count, [(a, b, spread ** rng.random()) for a, b, _ in g.edges]))
    return graphs


def replay_sequences(g, depth):
    """Every ordered sequence of ``depth`` non-loop contractions, replayed
    one surgery at a time, in lexicographic order of original edge ids.

    Yields (original ids contracted, product of the R/(L+R) weights taken in
    the graph current at each step, final graph): an enumeration that shares
    nothing with the set-memoized lattice walk it is compared with.
    """
    from taulab import invariants, transforms

    def rec(graph, alive, ids, weight):
        if len(ids) == depth:
            yield ids, weight, graph
            return
        prof = invariants.graph_profile(graph)
        for j, (a, b, _) in enumerate(graph.edges):
            if a != b:
                yield from rec(
                    transforms.contract_edge(graph, j),
                    alive[:j] + alive[j + 1:],
                    ids + (alive[j],),
                    weight * prof.weight_resistance[j],
                )

    yield from rec(g, tuple(range(g.edge_count)), (), 1.0)


@pytest.fixture
def replay():
    return replay_sequences
