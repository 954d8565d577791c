"""Exception hierarchy shared across the package."""


class ComptileError(Exception):
    """Base class for all package errors."""


class ValidationError(ComptileError, ValueError):
    """A value violates a documented invariant or precondition."""


class FormatError(ComptileError, ValueError):
    """A text or JSON input file is malformed."""


class SizeCapError(ComptileError, ValueError):
    """An exhaustive operation was asked to exceed its hard size cap."""


class BudgetExceeded(ComptileError, RuntimeError):
    """A search ran out of its node-expansion budget.

    Callers that expose an INDETERMINATE result catch this internally;
    it escapes only from low-level enumeration entry points, from
    ``regularity.counting_experiment`` and from
    ``solver.greedy_almost_tiling``, which sets ``partial`` to the tiling
    it had taken when the budget ran out.  The CLI reports it with exit 2.
    """

    partial = None


class ConsistencyError(ComptileError, RuntimeError):
    """An assembly postcondition that should be impossible to violate failed."""
