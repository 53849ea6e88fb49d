"""Coherence coefficients, invariance levels, and classification.

The level of a function is the pair (threshold for equal-index
relations, threshold for strict-index relations); both are read off the
trace: one less than the size of the smallest coherent bivalued subset,
and one less than the size of the smallest non-singleton coherent
subset, with infinity (`INF`, a plain float) when no such subset
exists.  The pair determines exactly which basic relations the function
respects (`relations.predict_invariant`); classification reads the same
two coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import BoundExceededError
from .functions import MonotoneFn, monotone_tables, trace_from_table
from .lattice import TriTuple


INF = math.inf  # coefficient or level coordinate of "no such subset"


def _json_num(value: int | float) -> int | str:
    return "inf" if value == INF else value


@dataclass(frozen=True)
class PLevel:
    """Invariance-level pair; first coordinate governs equal-index
    relations, second the strict-index ones."""

    i: int | float
    j: int | float

    def __post_init__(self):
        if self.i < 2 or self.j < 1:
            raise ValueError(f"levels start at (2, 1); got ({self.i}, {self.j})")
        if self.i < self.j:
            raise ValueError(f"first coordinate below second: ({self.i}, {self.j})")

    def to_json(self) -> list:
        return [_json_num(self.i), _json_num(self.j)]

    def __str__(self) -> str:
        return f"({self.i}, {self.j})"


# ---------------------------------------------------------------------------
# Coherence coefficients
# ---------------------------------------------------------------------------

def min_coherent_subset(fn: MonotoneFn, bivalued: bool) -> tuple[TriTuple, ...] | None:
    """Smallest coherent subset of the trace inputs (bivalued on demand,
    then of size >= 3, as coherent pairs agree in output): the first in
    `fn.coherent_subsets` that qualifies, or None when none does.  The
    listing refuses a trace above `functions.COHERENCE_BOUND`.
    """
    tt = fn.tt_mask
    for mask in fn.coherent_subsets:
        if not bivalued or (mask & tt) not in (0, mask):
            return tuple(e.input for p, e in enumerate(fn.entries) if mask >> p & 1)
    return None


def cc(fn: MonotoneFn) -> int | float:
    """Size of the smallest non-singleton coherent trace subset."""
    subset = min_coherent_subset(fn, bivalued=False)
    return INF if subset is None else len(subset)


def bcc(fn: MonotoneFn) -> int | float:
    """Size of the smallest coherent bivalued trace subset (>= 3)."""
    subset = min_coherent_subset(fn, bivalued=True)
    return INF if subset is None else len(subset)


def p_level(fn: MonotoneFn) -> PLevel:
    return PLevel(bcc(fn) - 1, cc(fn) - 1)


def p_level_of_sum(pf: PLevel, pg: PLevel) -> PLevel:
    """The join construction meets levels componentwise."""
    return PLevel(min(pf.i, pg.i), min(pf.j, pg.j))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

_DEGREE_ALIASES = {PLevel(2, 2): "BP", PLevel(INF, 1): "DET"}


@dataclass(frozen=True)
class ClassReport:
    name: str
    arity: int
    trace_size: int
    cc: int | float
    bcc: int | float
    plevel: PLevel
    classes: tuple[str, ...]
    degree_alias: str  # "BP" | "DET" | "none"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "arity": self.arity,
            "trace_size": self.trace_size,
            "cc": _json_num(self.cc),
            "bcc": _json_num(self.bcc),
            "plevel": self.plevel.to_json(),
            "classes": list(self.classes),
            "degree_alias": self.degree_alias,
        }


def classify(fn: MonotoneFn) -> ClassReport:
    """Everything here is read off the level, the recorded stability
    (`fn.stable`) and the number of output values; no relation searches
    are run.  Sequential means no coherent subset at all (cc = inf),
    subsequential no bivalued one (bcc = inf); stable means no coherent
    pair.  The two complete-degree aliases are the (2,2) and (inf,1)
    levels.  The (2,1) level is reported as stable_dominating only,
    without an alias."""
    level = p_level(fn)
    values = len(set(fn.outputs))
    flags = {
        "sequential": level.j == INF,
        "stable": fn.stable,
        "unstable": not fn.stable,
        "monovalued": values == 1,
        "bivalued": values == 2,
        "stable_dominating": level == PLevel(2, 1),
        "subsequential": level.i == INF,
    }
    return ClassReport(
        name=fn.label,
        arity=fn.arity,
        trace_size=fn.trace_size,
        cc=level.j + 1,
        bcc=level.i + 1,
        plevel=level,
        classes=tuple(c for c, holds in flags.items() if holds),
        degree_alias=_DEGREE_ALIASES.get(level, "none"),
    )


# ---------------------------------------------------------------------------
# Exhaustive enumeration (oracle support)
# ---------------------------------------------------------------------------

ENUMERATION_BOUND = 3  # arity 4 would compare 129,615^2 pairs of tables


def enumerate_monotone(arity: int) -> Iterator[MonotoneFn]:
    """Every monotone total function of the given arity, exactly once,
    as traces, in table-lexicographic order."""
    if arity > ENUMERATION_BOUND:
        raise BoundExceededError(
            f"arity {arity} above enumeration bound {ENUMERATION_BOUND}"
        )
    for table in monotone_tables(arity):
        yield trace_from_table(arity, table)
