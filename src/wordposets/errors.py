"""Exceptions shared across the package."""


class GraphParseError(ValueError):
    """A graph or alphabet is malformed: a syntax error in its text (citing
    the line) or a bad rank, edge or symbol, from a file or from code."""


class NotReducedError(ValueError):
    """A word that must be reduced is not."""


class SignToleranceError(ArithmeticError):
    """A root-vector sign could not be decided.

    Raised by the float column calculus when a root's coordinates all sit
    within tolerance of zero or carry both signs (which the theory forbids).
    The exact state decides every sign, so from the engines it means only
    that they disagree with themselves: a descent read contradicts the
    growth links, or a lower interval does not end at its element.
    """


class BudgetError(RuntimeError):
    """A configured cap (positions, closure size, memo entries, search nodes)
    was exceeded.  The partial computation is discarded, never truncated."""
