"""The module-level memos of excfact, found by their ``cache_clear``.

One listing for every caller that must start cold: the memo-policy test
clears them all before it counts their entries, and the benchmark, which
clears every memo before each pass, can call the same function.
"""

from __future__ import annotations

import sys
from typing import Callable


def excfact_memos() -> list[Callable]:
    """Each memoised callable that an imported excfact module exposes, once."""
    found = {
        id(f): f
        for name, module in sorted(sys.modules.items())
        if name == "excfact" or name.startswith("excfact.")
        for f in vars(module).values()
        if callable(getattr(f, "cache_clear", None))
    }
    return list(found.values())
