"""Error taxonomy shared by every module in the package."""

__all__ = [
    "SupertreeError",
    "NotKUniform",
    "Disconnected",
    "ContainsCycle",
    "EdgeOverlapTooLarge",
    "DuplicateEdge",
    "BadVertexId",
    "ShtFormatError",
    "InfeasibleDegreeSequence",
    "NoInteriorVertices",
    "NotAPermutation",
    "NotAnEigenfunction",
    "InvalidSpec",
    "ResultNotSupertree",
    "IndexOutOfRange",
    "DegreeTooSmall",
    "LengthMismatch",
    "NotMajorized",
    "EmptyFamily",
]


class SupertreeError(ValueError):
    """Base class for every structured error raised by this package."""


# structural validation

class NotKUniform(SupertreeError):
    """An edge does not contain exactly k distinct vertices."""


class Disconnected(SupertreeError):
    """The hypergraph does not form a single connected component."""


class ContainsCycle(SupertreeError):
    """Adding an edge closed an alternating vertex-edge cycle."""


class EdgeOverlapTooLarge(SupertreeError):
    """Two edges share more than one vertex."""


class DuplicateEdge(SupertreeError):
    """The same k-set appears twice in the edge list."""


class BadVertexId(SupertreeError):
    """A vertex id falls outside the contiguous range [0, n)."""


class ShtFormatError(SupertreeError):
    """An .sht file is syntactically malformed."""


class InfeasibleDegreeSequence(SupertreeError):
    """The degree multiset cannot be realized by any k-uniform supertree."""


# spectral

class NoInteriorVertices(SupertreeError):
    """The Dirichlet problem is empty: every vertex lies on the boundary."""


# orderings

class NotAPermutation(SupertreeError):
    """A vertex ordering is not a permutation of 0..n-1."""


class NotAnEigenfunction(SupertreeError):
    """A function fails the positivity/zero-boundary shape of a first
    Dirichlet eigenfunction."""


# transformations

class InvalidSpec(SupertreeError):
    """A switch or shift spec, or another argument such as a tolerance,
    violates its preconditions."""


class ResultNotSupertree(SupertreeError):
    """A transformation produced a hypergraph that is not a supertree."""


class IndexOutOfRange(SupertreeError):
    """A unit transformation index falls outside 0..n0-2."""


class DegreeTooSmall(SupertreeError):
    """A unit transformation would drop an interior degree below 2."""


class LengthMismatch(SupertreeError):
    """Two degree sequences cannot be compared (different length or k)."""


class NotMajorized(SupertreeError):
    """The majorization hypothesis between two degree sequences fails."""


# enumeration

class EmptyFamily(SupertreeError):
    """No supertree satisfies the requested family constraints."""
