"""Exception types shared across the package.

Everything raised on purpose derives from :class:`QsymError`, so callers
(and the command line driver) can tell our complaints apart from genuine
bugs.  The only exception with extra structure is :class:`ParseError`,
which carries an optional line number for input diagnostics.
"""

from __future__ import annotations


class QsymError(Exception):
    """Base class for all errors raised deliberately by this package."""


class LoopEdge(QsymError):
    """An edge (v, v) was supplied; simple graphs have no loops."""


class IndexOutOfRange(QsymError):
    """A vertex index fell outside ``range(n)``."""


class NotATree(QsymError):
    """An operation that needs a tree was handed something else."""


class SizeLimitExceeded(QsymError):
    """A search exceeded its node budget.

    Attributes
    ----------
    budget:
        The node budget that was in force when the search gave up.
    """

    def __init__(self, budget: int, message: str | None = None):
        self.budget = budget
        super().__init__(message or f"search exceeded node budget of {budget}")


class NonPositiveCount(QsymError):
    """A count parameter, such as the oracle survey's, must be positive."""


class EmptyInput(QsymError):
    """An empty list of factors where at least one is required."""


class HypothesisFailed(QsymError):
    """A construction's structural hypothesis does not hold for the inputs."""


class UnknownName(QsymError):
    """No gallery graph with the requested name."""


class BadParams(QsymError):
    """Gallery parameters outside the documented range."""


class ParseError(QsymError):
    """Malformed textual graph input.

    ``line`` is 1-based when the format is line oriented, else ``None``.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LengthMismatch(QsymError):
    """A permutation's image list has the wrong length for the graph."""


class OutOfRange(QsymError):
    """A permutation image list is not a bijection on range(n)."""
