"""Search budgets a caller may set, bundled so call sites can override them.

Only a count above `budget` is a BudgetExceededError (exit 4).  Fixed
limits (coherence, recursion and enumeration bounds, the cell cap, the
int64 index limit) live beside their one check as module constants and,
like `table_bound`, raise BoundExceededError.  A budgeted search checks
them first, so the budget refuses only what a larger budget would run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the budgeted searches, one command-line flag each.

    budget            -- max states for one brute-force enumeration
                         (relation invariance: |R|^k; mapping search:
                         |trace(g)|^|trace(f)|; term route: the cells
                         its chain's evaluation fills)
    table_bound       -- max arity of a full 3^k table term evaluation
                         builds: the term's, the oracle's and each
                         all-equal probe's (a table above the 10^8-cell
                         cap of functions.check_cells is refused
                         whatever the bound)
    """

    budget: int = 10**8
    table_bound: int = 6


DEFAULT_CONFIG = SearchConfig()
