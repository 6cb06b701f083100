"""Exception hierarchy shared across the package."""

from __future__ import annotations


class TmatchError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(TmatchError):
    """Malformed instance data (bad line, bad counts, bad parameters)."""


class ValidationError(TmatchError):
    """Structurally valid input that violates a problem precondition,
    e.g. a vertex of degree greater than t+1 or a negative weight."""


class NotVertexInducedError(TmatchError):
    """Weights are not vertex-induced on some forbidden subgraph."""

    def __init__(self, message: str, subgraph_id: int | None = None):
        super().__init__(message)
        self.subgraph_id = subgraph_id


class InfeasibleError(TmatchError):
    """The requested degree-constrained matching does not exist."""


class InstanceTooLargeError(TmatchError):
    """Instance exceeds a hard size gate of the brute-force oracle or the
    matching engine."""


class InternalError(TmatchError):
    """A structural invariant failed; indicates a bug, not bad input."""
