"""Exception types shared across the package.

Domain failures (resonances, obstructions) are distinguished from usage
errors so the CLI can map them to distinct exit codes.
"""


class LeafcohError(Exception):
    """Base class for all domain errors."""


class ExactnessError(LeafcohError):
    """An operation requiring exact arithmetic received approximate input."""


class EmptyRequestError(LeafcohError):
    """A count or size argument was zero where at least one item is needed."""


class DimensionError(LeafcohError):
    """Mismatched or degenerate dimensions."""


class ObstructionError(LeafcohError):
    """An exactly resonant mode carries a nonzero coefficient.

    The offending modes are kept on the exception for reporting.
    """

    def __init__(self, message, modes=None):
        super().__init__(message)
        self.modes = list(modes) if modes is not None else []


class NotClosedError(LeafcohError):
    """A form that must be closed fails the closedness check."""


class NotAutomorphismError(LeafcohError):
    """An integer matrix with determinant other than +-1."""


class NotHyperbolicError(LeafcohError):
    """Some eigenvalue modulus sits inside the certification band around 1."""


class InsufficientDataError(LeafcohError):
    """Fewer data points than the requested computation needs."""


class UnsupportedDegreeError(LeafcohError):
    """Polynomial degree outside the exact-computation window."""


class AmbiguityError(LeafcohError):
    """Even grid size with Nyquist-frequency content; the transform is not invertible."""


class NonpositiveError(LeafcohError):
    """A function required to be positive fails positivity on the check grid."""


class EmptySupportError(LeafcohError):
    """A report over nonzero frequencies was requested for a polynomial without any."""
