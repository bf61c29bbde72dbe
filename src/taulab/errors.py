"""Exception types shared across the package.

Everything raised on purpose by taulab derives from TauLabError, so callers
can catch one base class at the CLI boundary and map it to an exit code.
"""


class TauLabError(Exception):
    """Base class for all taulab errors."""


class BadVertexIndex(TauLabError, IndexError):
    """A vertex index is outside [0, vertex_count)."""


class BadEdgeIndex(TauLabError, IndexError):
    """An edge index is outside [0, edge_count)."""


class NonPositiveLength(TauLabError, ValueError):
    """An edge length is zero, negative or not finite, or, in input given to
    graphs.build_graph, outside [MIN_LENGTH, MAX_LENGTH]."""


class DisconnectedGraph(TauLabError, ValueError):
    """The vertex/edge data does not describe a connected graph."""


class WouldDisconnect(TauLabError, ValueError):
    """Deleting this edge would disconnect the graph (it is a bridge)."""


class SameVertex(TauLabError, ValueError):
    """Two distinct vertices were required but the same one was given twice."""


class SingularSystem(TauLabError, ArithmeticError):
    """A Laplacian solve failed or its residual was too large to trust."""


class BridgePresent(TauLabError, ValueError):
    """The operation is only defined on bridgeless graphs."""


class TooLarge(TauLabError, ValueError):
    """The graph exceeds the size cap of an exhaustive computation."""


class TooSmall(TauLabError, ValueError):
    """The graph is below the minimum size the operation is defined for."""


class NotNormalized(TauLabError, ValueError):
    """Total length must be 1 for this operation."""


class HasCutVertex(TauLabError, ValueError):
    """The operation requires a graph without cut vertices."""


class ValenceBelowThree(TauLabError, ValueError):
    """Every vertex must have valence at least 3 for this operation."""


class NotApplicable(TauLabError, ValueError):
    """An identity or reduction does not apply to the given graph."""

    def __init__(self, subject: str, reason: str):
        self.subject = subject
        self.reason = reason
        super().__init__(f"{subject}: {reason}")


class ParseError(TauLabError, ValueError):
    """A graph file could not be parsed."""


class UnknownIdentityId(TauLabError, KeyError):
    """No identity with the requested id exists in the registry."""
