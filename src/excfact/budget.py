"""Optional wall-clock budgets for the exponential searches.

A budget is carried in a context variable so the exact-search internals do
not need an extra parameter (which would also defeat result memoisation).
Code paths that can blow up call :func:`check_budget` at every search node;
when the deadline has passed they abort with :class:`BudgetExceededError`
instead of ever reporting an approximate value as exact.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import BudgetExceededError

_DEADLINE: ContextVar[float | None] = ContextVar("excfact_deadline", default=None)


@contextmanager
def time_budget(milliseconds: int):
    """Run the enclosed block under a wall-clock deadline; a budget too large
    for a float deadline sets none."""
    try:
        deadline = time.monotonic() + milliseconds / 1000.0
    except OverflowError:
        deadline = None
    token = _DEADLINE.set(deadline)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_budget() -> None:
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError("time budget exceeded")
