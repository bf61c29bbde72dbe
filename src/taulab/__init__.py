"""Electrical invariants of metrized graphs and a verified identity catalog.

A metrized graph is a finite connected multigraph whose edges carry positive
lengths, read throughout as resistances.  The package computes the tau
constant and its companion invariants, checks a catalog of contraction and
deletion identities to numerical tolerance, and evaluates lower bounds for
tau in terms of edge connectivity.
"""

from .connectivity import (
    BoundEntry,
    BoundsReport,
    N_of,
    conjecture_margin,
    lower_bounds,
)
from .cuts import INFINITE, edge_connectivity, is_infinite, vertex_connectivity
from .errors import NotApplicable, ParseError, TauLabError
from .graphs import MetrizedGraph, build_graph
from .invariants import (
    A_pq,
    InvariantSet,
    K_of,
    invariant_set,
    tau,
    tau_oracle_contraction,
    tau_oracle_integral,
)
from .transforms import (
    contract_edge,
    cubic_transform,
    delete_edge,
    double_adjusted,
    identify_endpoints,
    identify_points,
    reduce_edge_connectivity_two,
    subdivide,
)

__version__ = "0.1.0"

# The identity catalog is the package's largest module and most callers
# never reach it, so its four names load it on first use (PEP 562).
_IDENTITY_NAMES = frozenset({"IdentityReport", "identity_ids", "verify", "verify_all"})


def __getattr__(name: str):
    if name in _IDENTITY_NAMES:
        from . import identities
        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "A_pq",
    "BoundEntry",
    "BoundsReport",
    "INFINITE",
    "IdentityReport",
    "InvariantSet",
    "K_of",
    "MetrizedGraph",
    "N_of",
    "NotApplicable",
    "ParseError",
    "TauLabError",
    "build_graph",
    "conjecture_margin",
    "contract_edge",
    "cubic_transform",
    "delete_edge",
    "double_adjusted",
    "edge_connectivity",
    "identify_endpoints",
    "identify_points",
    "identity_ids",
    "invariant_set",
    "is_infinite",
    "lower_bounds",
    "reduce_edge_connectivity_two",
    "subdivide",
    "tau",
    "tau_oracle_contraction",
    "tau_oracle_integral",
    "verify",
    "verify_all",
    "vertex_connectivity",
    "__version__",
]
