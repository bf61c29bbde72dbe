"""Connectivity measures and the lower bounds they put on the tau constant.

Three integers meet here: edge connectivity (smallest edge set whose removal
disconnects), vertex connectivity, and minimum valence, always in that order
by size.  The parallel-class minimum N_of equals the edge connectivity and is
computed independently by brute force over full contractions, which is what
makes it worth having: the agreement is a strong end-to-end check on both the
contraction machinery and the min-cut code.

lower_bounds evaluates every bound whose hypotheses the graph satisfies and
reports the slack of each one against the actual tau value.  None of them is
ever asserted; a negative slack in a report is a finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import invariants
from .cuts import edge_connectivity, is_infinite, vertex_connectivity
from .errors import BridgePresent, TooSmall
from .graphs import MetrizedGraph

__all__ = [
    "BoundEntry",
    "BoundsReport",
    "N_of",
    "conjecture_margin",
    "edge_connectivity",
    "lower_bounds",
    "vertex_connectivity",
]

# The conjectured universal constant: tau is expected to stay above
# total_length / 108 on every metrized graph.
CONJECTURE_DENOMINATOR = 108.0


def N_of(g: MetrizedGraph) -> int:
    """Minimum parallel-edge count over all full contractions to 2 vertices.

    This equals edge_connectivity(g), but is computed by exhaustive
    enumeration of contraction outcomes rather than by max-flow.  Raises
    TooLarge when the contraction lattice is over its node cap.
    """
    if g.vertex_count < 2:
        raise TooSmall("parallel-class minimum needs at least 2 vertices")
    if not g.is_bridgeless():
        raise BridgePresent("parallel-class minimum expects a bridgeless graph")
    return min(invariants.banana_stats(core)[0] for _, core, _ in invariants.admissible_leaf_nodes(g))


@dataclass(frozen=True)
class BoundEntry:
    """One evaluated bound: `kind` is "lower" or "upper" relative to tau."""

    name: str
    kind: str
    bound: float
    value: float

    @property
    def slack(self) -> float:
        if self.kind == "upper":
            return self.bound - self.value
        return self.value - self.bound


@dataclass(frozen=True)
class BoundsReport:
    """Connectivity numbers and every tau bound that applies to the graph.

    ``bounds`` holds the connectivity and vertex-count bounds, then the
    genus bound (bridgeless graphs), then the equal-length pair (bridgeless
    graphs whose edges share one length).
    """

    edge_conn: int | float  # math.inf (INFINITE) for a single vertex
    vertex_conn: int | None
    min_valence: int
    bounds: tuple[BoundEntry, ...]
    conjecture_margin: float


def conjecture_margin(g: MetrizedGraph) -> float:
    """tau / total_length minus 1/108; negative means a counterexample.

    A graph with no edges has no length to compare against, which we report
    as an infinite margin rather than an error.
    """
    ell = g.total_length
    if ell == 0.0:
        return math.inf
    return invariants.tau(g) / ell - 1.0 / CONJECTURE_DENOMINATOR


def lower_bounds(g: MetrizedGraph) -> BoundsReport:
    """Evaluate every applicable tau bound and the conjecture margin."""
    value = invariants.tau(g)
    ell = g.total_length
    v = g.vertex_count
    lam = edge_connectivity(g)
    kappa = vertex_connectivity(g) if v >= 2 else None
    bridgeless = g.is_bridgeless()

    bounds = []
    if is_infinite(lam):
        # Loop bouquets: the quadratic bound degenerates to its limit ell/12,
        # which the bouquet attains exactly.
        bounds.append(BoundEntry("edge-connectivity bound", "lower", ell / 12.0, value))
    elif lam >= 4:
        quad = (1.0 / 12.0) * (1.0 - 4.0 / lam) ** 2 + 4.0 * (lam - 2) / ((v + 6) * lam * lam)
        bounds.append(BoundEntry("edge-connectivity bound", "lower", ell * quad, value))
    bounds.append(BoundEntry("vertex-count bound", "lower", ell / (2.0 * (v + 6)), value))
    if lam >= 6:
        bounds.append(BoundEntry("length over 108", "lower", ell / 108.0, value))
    elif lam == 5:
        bounds.append(BoundEntry("length over 300", "lower", ell / 300.0, value))

    if bridgeless:
        bounds.append(BoundEntry("genus bound", "lower", ell / (6.0 * (g.genus + 1)), value))

    lengths = {length for _, _, length in g.edges}
    if bridgeless and len(lengths) == 1 and not is_infinite(lam):
        e = g.edge_count
        ratio = (v - 1) / e
        low = 1.0 / 12.0 - ratio / 6.0 + (v + 6) / (12.0 * v) * ratio * ratio
        high = 1.0 / 12.0 - ratio / 6.0 + ratio / (3.0 * lam)
        bounds.append(BoundEntry("equal-length lower", "lower", ell * low, value))
        bounds.append(BoundEntry("equal-length upper", "upper", ell * high, value))

    return BoundsReport(
        edge_conn=lam,
        vertex_conn=kappa,
        min_valence=g.min_valence(),
        bounds=tuple(bounds),
        conjecture_margin=conjecture_margin(g),
    )
