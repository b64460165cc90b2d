"""Exception types shared across the package."""


class LocdomError(ValueError):
    """Base class for every error raised by this package."""


class SelfLoopError(LocdomError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(LocdomError):
    """The same unordered vertex pair appears twice."""


class VertexRangeError(LocdomError):
    """A vertex id lies outside [0, n)."""


class EdgeRangeError(LocdomError):
    """An edge index lies outside [0, m)."""


class SizeLimitError(LocdomError):
    """The request exceeds a supported range: enumeration, graph6 short form, edge-list order."""


class CodecError(LocdomError):
    """Malformed textual graph data."""


class BadLengthError(CodecError):
    """A graph6 record has the wrong number of payload bytes."""


class BadCharacterError(CodecError):
    """A byte outside the printable graph6 range 63..126."""


class HeaderMismatchError(CodecError):
    """An edge-list header disagrees with the body that follows it."""


class NotConnectedError(LocdomError):
    """The operation requires a connected graph."""


class NotATreeError(LocdomError):
    """The operation requires a tree."""


class EdgeTwinsError(LocdomError):
    """The operation requires an edge-twin-free graph."""


class DiameterTooSmallError(LocdomError):
    """The tree construction needs diameter at least 4."""


class EmptyFamilyError(LocdomError):
    """A generator was asked for the empty member of its family."""


class TooSmallError(LocdomError):
    """A generator size parameter is below the family minimum."""


class InfeasibleError(LocdomError):
    """No feasible set exists; `reason` names the violated precondition."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
