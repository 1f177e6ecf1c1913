"""Exception types shared across the toolkit."""


class CommGraphError(Exception):
    """Base class for all toolkit errors."""


class InvalidGenerator(CommGraphError):
    """A generator (permutation, matrix, or explicit table) is malformed."""


class OrderCapExceeded(CommGraphError):
    """A group construction would exceed the configured order cap."""


class LatticeCapExceeded(CommGraphError):
    """Subgroup enumeration exceeded the configured lattice cap."""


class ParentMismatch(CommGraphError):
    """Two subgroup sets do not live over the same group table."""


class NotContained(CommGraphError):
    """An operation required one subgroup to contain another."""


class NotNormal(CommGraphError):
    """An operation required a normal subgroup."""


class NotNilpotent(CommGraphError):
    """An operation required a nilpotent subgroup."""


class NotConnected(CommGraphError):
    """Two vertices lie in different graph components."""


class InvalidSpec(CommGraphError):
    """A group-spec document is structurally or semantically invalid."""


class SpecSyntaxError(InvalidSpec):
    """A group-spec document failed to parse; carries the error position."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position
