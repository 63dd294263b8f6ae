"""Exception types shared across the package."""

from __future__ import annotations


class SvilabError(Exception):
    """Base class for all package-specific errors."""


class ContractViolation(SvilabError):
    """An argument broke a documented precondition (shape, range, finiteness)."""


class ConfigError(SvilabError):
    """A solver or benchmark configuration is invalid.

    Carries an optional source line number when raised by the config parser.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BudgetExhausted(SvilabError):
    """A charge would exceed the remaining sample budget.

    The charge is refused wholesale; ``consumed`` reflects the counter
    state before it, ``requested`` its size. Solvers size their runs to
    the budget and charge their planned cost once, before their first
    draw, so inside a solver this signals a broken invariant.
    """

    def __init__(self, consumed, requested, limit):
        super().__init__(
            f"sample budget exhausted: {consumed} consumed of {limit}, "
            f"refused batch of {requested}"
        )
        self.consumed = consumed
        self.requested = requested
        self.limit = limit


class ScheduleOverflow(SvilabError):
    """A sample-size schedule grew past what can be drawn in one batch."""


class NoConvergence(SvilabError):
    """An iterative reference computation hit its cap before its tolerance."""


class MetricUnavailable(SvilabError):
    """A requested metric cannot be computed for this problem instance."""
