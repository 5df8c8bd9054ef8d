"""Exception types shared across the package."""


class FormatError(ValueError):
    """Malformed textual graph input (edge list or graph6)."""


class PreconditionError(ValueError):
    """An operation was called on values violating its precondition."""


class ParameterError(ValueError):
    """Invalid numeric parameters, e.g. a size window with l > m."""


class BudgetExceededError(RuntimeError):
    """An exact search ran past its time budget.  No partial answer is kept."""


class EnumerationCapError(RuntimeError):
    """A brute-force enumeration produced more items than its configured cap."""


class InvariantError(AssertionError):
    """An internal postcondition failed; raised explicitly so ``python -O`` keeps it."""
