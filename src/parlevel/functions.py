"""Traces and first-order monotone boolean functions.

A function is stored as its trace: the set of minimal inputs on which it
becomes defined, each paired with the value taken there.  The trace is
the canonical form; full tables are only materialized on demand and
under a configured arity bound.

A validated function also carries its trace's coherence facts, built
once at construction: the bitplanes of its inputs (`planes`, see
`lattice.bitplanes`) and the mask of its true-valued entries
(`tt_mask`).  Validation, stability, the coherence coefficients and the
trace-mapping check all read these fields.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    ArityMismatchError,
    BoundExceededError,
    ComparableRowsError,
    FormatError,
    InconsistentOutputsError,
    NonMonotoneTableError,
)
from .lattice import BOT, FF, TT, Bitplanes, Tri, TriTuple, bitplanes, leq, mask_coherent


@dataclass(frozen=True)
class TraceEntry:
    """One minimal defined point: input tuple plus the (defined) output."""

    input: TriTuple
    output: Tri

    def __post_init__(self):
        if self.output == BOT:
            raise InconsistentOutputsError("trace outputs must be defined")

    @property
    def key(self) -> tuple[int, int]:
        return (self.input.encode(), int(self.output))

    def __str__(self) -> str:
        return f"{self.input.text} -> {self.output.char}"


@dataclass(frozen=True)
class MonotoneFn:
    """A monotone function, held as its trace (sorted by input code).

    Construction validates the trace invariants: inputs pairwise
    incomparable, and compatible (coherent) input pairs agree on the
    output.  It keeps the inputs' bitplanes and the mask of true-valued
    entries, bit p standing for entry p.  Equality ignores the optional
    name and these derived fields.
    """

    arity: int
    entries: tuple[TraceEntry, ...]
    name: str | None = field(default=None, compare=False)
    planes: Bitplanes = field(init=False, compare=False, repr=False)
    tt_mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.arity < 1:
            raise ArityMismatchError("functions must have arity >= 1")
        for e in self.entries:
            if e.input.arity != self.arity:
                raise ArityMismatchError(
                    f"trace row {e.input.text} has arity {e.input.arity}, "
                    f"function declares {self.arity}"
                )
        keys = [e.key for e in self.entries]
        if sorted(keys) != keys:
            object.__setattr__(
                self, "entries", tuple(sorted(self.entries, key=lambda e: e.key))
            )
        planes = bitplanes(self.inputs)
        tt_mask = sum(1 << p for p, e in enumerate(self.entries) if e.output == TT)
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "tt_mask", tt_mask)
        # x <= y implies code(x) <= code(y), so in a pair taken in sorted
        # order only the first input can lie below the second
        for (p, a), (q, b) in itertools.combinations(enumerate(self.entries), 2):
            if leq(a.input, b.input):
                raise ComparableRowsError(
                    f"comparable trace inputs: {a.input.text} and {b.input.text}"
                )
            if a.output != b.output and mask_coherent((1 << p) | (1 << q), planes):
                raise InconsistentOutputsError(
                    f"compatible inputs with different outputs: {a} and {b}"
                )

    @property
    def trace_size(self) -> int:
        return len(self.entries)

    @property
    def inputs(self) -> tuple[TriTuple, ...]:
        return tuple(e.input for e in self.entries)

    @property
    def outputs(self) -> tuple[Tri, ...]:
        return tuple(e.output for e in self.entries)

    def eval(self, x: TriTuple) -> Tri:
        if x.arity != self.arity:
            raise ArityMismatchError(
                f"argument arity {x.arity}, function arity {self.arity}"
            )
        for e in self.entries:
            if leq(e.input, x):
                return e.output
        return BOT

    def renamed(self, name: str | None) -> "MonotoneFn":
        return MonotoneFn(self.arity, self.entries, name)

    @property
    def label(self) -> str:
        return self.name if self.name is not None else f"<fn/{self.arity}>"

    def __str__(self) -> str:
        rows = ", ".join(str(e) for e in self.entries)
        return f"{self.label}: arity {self.arity}, trace {{{rows}}}"


def validate_trace(arity: int, entries: Iterable[TraceEntry], name: str | None = None) -> MonotoneFn:
    """Checked constructor; rejects duplicates rather than deduplicating."""
    rows = list(entries)
    if len({e.key for e in rows}) != len(rows):
        raise ComparableRowsError("duplicate trace entries")
    return MonotoneFn(arity, tuple(rows), name)


def entry(text: str, output: str | Tri) -> TraceEntry:
    """Shorthand: entry('_TF', 'T')."""
    out = output if isinstance(output, Tri) else Tri.from_char(output)
    return TraceEntry(TriTuple.from_text(text), out)


@functools.lru_cache(maxsize=4096)
def table_of(fn: MonotoneFn) -> tuple[int, ...]:
    """Full table of `fn` as trit codes indexed by base-3 input code.

    Filled by spraying each trace entry over its upper set; consistency
    of the trace makes overlapping writes agree.
    """
    k = fn.arity
    table = [0] * 3**k
    for e in fn.entries:
        free = [c for c in range(k) if e.input.entries[c] == BOT]
        base = e.input.encode()
        out = int(e.output)
        for fill in itertools.product((0, 1, 2), repeat=len(free)):
            code = base
            for c, v in zip(free, fill):
                code += v * 3 ** (k - 1 - c)
            table[code] = out
    return tuple(table)


def _check_monotone_codes(k: int, vals: Sequence[int]) -> tuple[int, int] | None:
    """Return a violating covering pair of codes, or None if monotone.

    Monotonicity over the product of flat domains reduces to the covering
    pairs: raise one undefined coordinate to a defined value.
    """
    pow3 = [3 ** (k - 1 - c) for c in range(k)]
    for code, v in enumerate(vals):
        if v == 0:
            continue
        for c in range(k):
            if (code // pow3[c]) % 3 == 0:
                for up in (1, 2):
                    hi = code + up * pow3[c]
                    if vals[hi] != v:
                        return (code, hi)
    return None


def trace_from_table(
    arity: int, table: Sequence[int], name: str | None = None
) -> MonotoneFn:
    """Extract the trace from a total table of trit codes indexed by
    base-3 input code; rejects non-monotone tables naming one violating
    pair."""
    vals = [int(v) for v in table]
    if len(vals) != 3**arity:
        raise ArityMismatchError(
            f"table has {len(vals)} rows, expected {3**arity} for arity {arity}"
        )

    bad = _check_monotone_codes(arity, vals)
    if bad is not None:
        lo, hi = bad
        raise NonMonotoneTableError(
            TriTuple.decode(lo, arity).text, TriTuple.decode(hi, arity).text
        )

    pow3 = [3 ** (arity - 1 - c) for c in range(arity)]
    rows = []
    for code, v in enumerate(vals):
        if v == 0:
            continue
        minimal = True
        for c in range(arity):
            trit = (code // pow3[c]) % 3
            if trit != 0 and vals[code - trit * pow3[c]] != 0:
                minimal = False
                break
        if minimal:
            rows.append(TraceEntry(TriTuple.decode(code, arity), Tri(v)))
    return MonotoneFn(arity, tuple(rows), name)


def neg(fn: MonotoneFn) -> MonotoneFn:
    """Swap the two defined output values wholesale."""
    flipped = tuple(
        TraceEntry(e.input, TT if e.output == FF else FF) for e in fn.entries
    )
    name = f"neg({fn.name})" if fn.name else None
    return MonotoneFn(fn.arity, flipped, name)


def fn_sum(f: MonotoneFn, g: MonotoneFn) -> MonotoneFn:
    """Join construction: one fresh argument steers to f's rows (true
    branch) or g's rows (false branch, padded when arities differ).

    Arguments are oriented so the wider function takes the true branch;
    the result represents the least upper bound of the two degrees.
    """
    if f.arity < g.arity:
        f, g = g, f
    pad = f.arity - g.arity + 1
    rows = [
        TraceEntry(TriTuple((TT,) + e.input.entries), e.output) for e in f.entries
    ] + [
        TraceEntry(TriTuple((FF,) * pad + e.input.entries), e.output)
        for e in g.entries
    ]
    name = f"sum({f.name},{g.name})" if f.name and g.name else None
    return MonotoneFn(f.arity + 1, tuple(rows), name)


def is_stable(fn: MonotoneFn) -> bool:
    """Stability at first order: no two trace inputs are compatible,
    i.e. no pair of entries is coherent."""
    return not any(
        mask_coherent((1 << p) | (1 << q), fn.planes)
        for p, q in itertools.combinations(range(fn.trace_size), 2)
    )


def is_monovalued(fn: MonotoneFn) -> bool:
    return len(set(fn.outputs)) == 1


def is_bivalued(fn: MonotoneFn) -> bool:
    return len(set(fn.outputs)) == 2


RECURSION_BOUND = 6  # largest arity the recursive sequentiality test takes


def is_m_sequential(fn: MonotoneFn) -> bool:
    """Recursive sequentiality: constant, or some argument index is
    strict and every way of fixing it leaves a sequential residual."""
    if fn.arity > RECURSION_BOUND:
        raise BoundExceededError(
            f"arity {fn.arity} above recursion bound {RECURSION_BOUND}"
        )
    return _mseq_table(table_of(fn), fn.arity)


@functools.lru_cache(maxsize=200_000)
def _mseq_table(vals: tuple[int, ...], k: int) -> bool:
    if len(set(vals)) == 1:
        return True
    pow3 = [3 ** (k - 1 - c) for c in range(k)]
    for i in range(k):
        strict = all(
            v == 0 for code, v in enumerate(vals) if (code // pow3[i]) % 3 == 0
        )
        if not strict:
            continue
        if k == 1:
            return True  # residuals are single values, hence constant
        ok = True
        for fixed in (1, 2):
            residual = tuple(
                vals[code]
                for code in range(len(vals))
                if (code // pow3[i]) % 3 == fixed
            )
            if not _mseq_table(residual, k - 1):
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# Trace file format:
#   optional '#' comment lines ('# name: X' sets the label)
#   'arity <k>'
#   one '<tuple> -> <T|F>' line per entry
# ---------------------------------------------------------------------------

def format_trace(fn: MonotoneFn) -> str:
    lines = []
    if fn.name is not None:
        lines.append(f"# name: {fn.name}")
    lines.append(f"arity {fn.arity}")
    lines.extend(str(e) for e in fn.entries)
    return "\n".join(lines) + "\n"


def is_ascii_number(text: str) -> bool:
    """Only ASCII digits: str.isdigit() also takes superscript digits,
    which int() then rejects."""
    return text.isascii() and text.isdigit()


NESTING_BOUND = 200  # deepest parenthesis nesting a term file or function name takes


def check_nesting(depth: int, line: int | None = None) -> None:
    """Reject nesting past NESTING_BOUND before the recursive parsers
    and evaluators of terms and names meet it."""
    if depth > NESTING_BOUND:
        raise FormatError(f"nesting deeper than bound {NESTING_BOUND}", line)


def parse_trace(text: str) -> MonotoneFn:
    arity: int | None = None
    name: str | None = None
    rows: list[TraceEntry] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("name:"):
                name = body[5:].strip()
            continue
        words = line.split()
        if words[0] == "arity":
            if arity is not None:
                raise FormatError("duplicate arity line", lineno)
            if len(words) != 2 or not is_ascii_number(words[1]):
                raise FormatError(f"bad arity line {line!r}", lineno)
            arity = int(words[1])
            if arity < 1:
                raise FormatError("arity must be >= 1", lineno)
            continue
        if arity is None:
            raise FormatError("trace rows before arity line", lineno)
        parts = line.split("->")
        if len(parts) != 2:
            raise FormatError(f"bad trace row {line!r}", lineno)
        tup = parts[0].strip()
        out = parts[1].strip()
        if len(tup) != arity:
            raise FormatError(
                f"tuple {tup!r} has length {len(tup)}, arity is {arity}", lineno
            )
        if out not in ("T", "F"):
            raise FormatError(f"output must be T or F, got {out!r}", lineno)
        try:
            rows.append(entry(tup, out))
        except FormatError as exc:
            raise FormatError(str(exc), lineno) from None
    if arity is None:
        raise FormatError("missing arity line")
    return validate_trace(arity, rows, name)
