import pytest

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


def replay_sequences(g, depth):
    """Every ordered sequence of ``depth`` non-loop contractions, replayed
    one surgery at a time, in lexicographic order of original edge ids.

    Yields (original ids contracted, product of the R/(L+R) weights taken in
    the graph current at each step, final LatticeNode): an enumeration that
    shares nothing with the set-memoized lattice walk it is compared with.
    """
    from taulab import invariants, transforms

    def rec(graph, alive, ids, weight):
        if len(ids) == depth:
            yield ids, weight, invariants.LatticeNode(graph, alive)
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
