"""Exception types shared across the package.

Everything raised on purpose derives from :class:`RepdynError` so callers can
catch numerical-analysis failures without masking programming errors
(``ValueError``/``TypeError`` still signal misuse of an API).  The command
line exits 64 for the input errors and 70 for the rest and for LAPACK's.
An overflow carries only its message: a sphere scan that meets one stops
at the last complete sphere and reports how far it got.
"""

from __future__ import annotations


class RepdynError(Exception):
    """Base class for all deliberate failures in this package."""


class DegenerateInputError(RepdynError):
    """A matrix or generator set violates a structural requirement.

    Raised for non-square, non-finite, or numerically singular input, and
    for nearly dependent subspace collections.
    """


class DegenerateGapError(RepdynError):
    """A singular-value gap needed to define a subspace is too small.

    Parameters
    ----------
    message : str
    index : int
        1-based singular value index at which the gap collapsed.
    gap : float
        The relative gap that was observed.
    time : int, optional
        Cocycle time at which the collapse occurred, when relevant.
    """

    def __init__(self, message, index, gap, time=None):
        super().__init__(message)
        self.index = index
        self.gap = gap
        self.time = time


class NumericOverflowError(RepdynError):
    """A matrix product, or a statistic read from one, left float64 range."""


class WindowBoundsError(RepdynError):
    """A flow shift or trajectory request exceeded the stored window."""


class ConditionWarning(UserWarning):
    """Warned when a matrix is so ill-conditioned results may be meaningless."""
