"""Search budgets a caller may set, bundled so call sites can override them.

Fixed limits on input size (coherence, mapping, recursion and
enumeration bounds) live beside their one check as module constants.
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
                         all-equal probe's (a table of more than
                         functions.CELL_LIMIT = 10^8 cells is refused
                         whatever the bound)
    """

    budget: int = 10**8
    table_bound: int = 6


DEFAULT_CONFIG = SearchConfig()
