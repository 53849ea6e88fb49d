"""Traces and first-order monotone boolean functions.

A function is stored as its trace: the set of minimal inputs on which it
becomes defined, each paired with the value taken there.  The trace is
the canonical form.  A full table (`table_of`) is a flat int8 array in
numpy's row-major (3,)*k layout, so its index is the base-3 input code
and `reshape((3,) * k)` gives one axis per coordinate.  The same cells
in the same order also come as two planes, Python ints whose bit x is
set where the table holds T (the tt plane) or F (the ff plane) at code
x: `table_planes` packs tables into planes, `digit_plane` gives the
cells of one digit, and `trace_from_planes` reads a trace off planes,
as `trace_from_table` does off a table.  Tables are built
on demand, and every caller bounds their 3^k cells: `table_bound`
covers each 3^n-cell array term evaluation builds (`terms.eval_term`) and
`RECURSION_BOUND` covers `is_m_sequential`.  Whatever the flags say,
`check_cells` refuses any input-sized array, a table or a relation
listing, of more than CELL_LIMIT cells, as a bound error.

A validated function also carries its trace's coherence facts, built
once at construction with the check: its inputs' bitplanes (`planes`,
see `lattice.bitplanes`), the mask of its true-valued entries
(`tt_mask`) and whether no two entries are coherent (`stable`).  Its
`coherent_subsets` are listed on first use, for the levels and mappings;
a trace of more than COHERENCE_BOUND entries is refused there, as a
bound error.  The listing bound and the cell cap read only sizes, so
every budgeted gate checks them before it counts states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DIGIT_LIMIT,
    ArityMismatchError,
    BoundExceededError,
    ComparableRowsError,
    FormatError,
    InconsistentOutputsError,
    NonMonotoneTableError,
    power_count,
)
from .lattice import (
    BOT, FF, TT, Bitplanes, Tri, TriTuple, bitplanes, leq, masks_coherent
)

CELL_LIMIT = 10**8  # cells of an input-sized array: a table or a relation listing
COHERENCE_BOUND = 20  # largest trace whose 2^m entry subsets are listed


def check_cells(width: int, what: str) -> None:
    """Refuse 3^width cells above CELL_LIMIT, whatever the flags say."""
    cells = power_count((3, width))
    if isinstance(cells, str) or cells > CELL_LIMIT:
        raise BoundExceededError(f"{what} needs 3^{width} cells, above cell cap {CELL_LIMIT}")


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
    output.  It keeps the inputs' bitplanes, the mask of true-valued
    entries (bit p standing for entry p) and stability.  Equality ignores
    the optional name and these derived facts.
    """

    arity: int
    entries: tuple[TraceEntry, ...]
    name: str | None = field(default=None, compare=False)
    planes: Bitplanes = field(init=False, compare=False, repr=False)
    tt_mask: int = field(init=False, compare=False, repr=False)
    stable: bool = field(init=False, compare=False, repr=False)

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
        ff_mask = (1 << self.trace_size) - 1 & ~tt_mask
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "tt_mask", tt_mask)
        # x <= y implies code(x) <= code(y), so only later entries can lie above a.
        # Of those, `upper` holds a's values and `coherent` them or undefined where
        # a is defined; the lowest bad one makes the first bad pair in pair order
        stable = True
        for p, a in enumerate(self.entries):
            upper = coherent = (tt_mask | ff_mask) >> (p + 1) << (p + 1)
            for plane, v in zip(planes, a.input.entries):
                if v != BOT:
                    upper &= plane[v]
                    coherent &= plane[v] | plane[BOT]
            stable = stable and not coherent
            bad = upper | coherent & (ff_mask if a.output == TT else tt_mask)
            if bad:
                q = (bad & -bad).bit_length() - 1
                b = self.entries[q]
                if upper >> q & 1:
                    raise ComparableRowsError(
                        f"comparable trace inputs: {a.input.text} and {b.input.text}"
                    )
                raise InconsistentOutputsError(
                    f"compatible inputs with different outputs: {a} and {b}"
                )
        object.__setattr__(self, "stable", stable)

    @functools.cached_property
    def coherent_subsets(self) -> list[int]:
        """Masks of the coherent subsets of two or more entries, by size,
        then in `itertools.combinations` order.  A trace of more than
        COHERENCE_BOUND entries is refused before its 2^m masks are
        listed, for the coefficients and the mappings alike."""
        m = self.trace_size
        if m > COHERENCE_BOUND:
            raise BoundExceededError(f"trace size {m} above coherence bound {COHERENCE_BOUND}")
        # all masks with entry 0 in before out, then entry 1, and so on
        masks = np.zeros(1, dtype=np.int64)
        sizes = np.zeros(1, dtype=np.int8)
        for p in reversed(range(m)):
            masks = np.concatenate((masks | (1 << p), masks))
            sizes = np.concatenate((sizes + 1, sizes))
        keep = (sizes >= 2) & masks_coherent(masks, self.planes)
        by_size = np.argsort(sizes[keep], kind="stable")
        return masks[keep][by_size].tolist()

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
def table_of(fn: MonotoneFn) -> np.ndarray:
    """Full table of `fn` as a read-only int8 array of trit codes, laid
    out as numpy's row-major (3,)*k cube flattened, so the base-3 input
    code is the index.

    Filled by writing each trace entry over its upper set, the sub-cube
    left free at the entry's undefined coordinates; consistency of the
    trace makes overlapping writes agree.
    """
    cube = np.zeros((3,) * fn.arity, dtype=np.int8)
    for e in fn.entries:
        upper = tuple(slice(None) if v == BOT else v for v in e.input.entries)
        cube[upper] = e.output
    table = cube.reshape(-1)
    table.flags.writeable = False
    return table


def monotone_tables(arity: int) -> np.ndarray:
    """Every monotone table of the given arity, one per row in
    `table_of`'s layout, in lexicographic order: a table is its slices
    at first coordinate undefined, T and F, and is monotone exactly when
    each slice is and the first lies below the other two cell by cell."""
    tables = np.arange(3, dtype=np.int8)[:, None]
    for _ in range(arity):
        low, high = tables[:, None], tables[None]
        below = ((low == 0) | (low == high)).all(axis=2)
        b, t, f = np.nonzero(below[:, :, None] & below[:, None, :])
        tables = np.concatenate((tables[b], tables[t], tables[f]), axis=1)
    return tables


def digit_plane(k: int, c: int) -> int:
    """The cells of the 3^k cube whose digit c (first coordinate most
    significant) is 0, as a plane; shifted by d * 3^(k-1-c) it is the
    cells whose digit c is d.  One period, 3^(k-c) cells with the first
    third set, is doubled 3^c times over: no big-int division."""
    stride = 3 ** (k - 1 - c)
    block, width, times = (1 << stride) - 1, 3 * stride, 3**c
    plane = 0
    while times:
        if times & 1:
            plane = plane << width | block
        times >>= 1
        if times:
            block |= block << width
            width *= 2
    return plane


def table_planes(tables: np.ndarray) -> tuple[list[int], list[int]]:
    """The (tt, ff) planes of each row of a 2-D array of trit codes, in
    one `np.packbits` each: bit x of a row's tt (ff) plane is set when
    its cell x holds TT (FF).  A cell holding anything but 0, 1 or 2 is
    refused rather than packed as undefined."""
    tables = np.asarray(tables)
    tt, ff = tables == TT.value, tables == FF.value  # an IntEnum costs numpy attribute lookups
    stray = ~(tt | ff | (tables == BOT.value))
    if stray.any():
        row, cell = np.argwhere(stray)[0]
        raise FormatError(
            f"table row {cell} holds {tables[row, cell].item()!r}, not a trit code 0, 1 or 2"
        )
    return _pack_rows(tt), _pack_rows(ff)


def _pack_rows(bits: np.ndarray) -> list[int]:
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


def unpack_plane(plane: int, cells: int) -> np.ndarray:
    """The first `cells` bits of `plane`, one uint8 0 or 1 per cell."""
    data = np.frombuffer(plane.to_bytes((cells + 7) // 8, "little"), np.uint8)
    return np.unpackbits(data, count=cells, bitorder="little")


def trace_from_table(
    arity: int, table: Sequence[int], name: str | None = None
) -> MonotoneFn:
    """Extract the trace from a total table of trit codes indexed by
    base-3 input code: its planes (`table_planes`) read by
    `trace_from_planes`."""
    cube = np.asarray(table)
    if cube.size != 3**arity:
        raise ArityMismatchError(
            f"table has {cube.size} rows, expected {3**arity} for arity {arity}"
        )
    (tt,), (ff,) = table_planes(cube.reshape(1, -1))
    return trace_from_planes(arity, tt, ff, name)


def trace_from_planes(k: int, tt: int, ff: int, name: str | None = None) -> MonotoneFn:
    """Extract the trace of the function whose table over the 3^k cells
    has disjoint planes `tt` and `ff` (`table_planes`).  For each
    coordinate c, of stride s = 3^(k-1-c), the defined cells whose digit
    c is 0, shifted by s and by 2s, must lie in the same plane; a table
    that breaks this is rejected, naming the violating pair with the
    least lower input, then coordinate, then raised value.  The trace is
    the defined cells no such shift reaches."""
    covered = 0
    bad = []
    for c in range(k):
        stride = 3 ** (k - 1 - c)
        zero = digit_plane(k, c)
        low_tt, low_ff = tt & zero, ff & zero
        for up in (1, 2):
            shift = up * stride
            if (low_tt << shift | tt) != tt or (low_ff << shift | ff) != ff:
                wrong = low_tt & ~(tt >> shift) | low_ff & ~(ff >> shift)
                bad.append(((wrong & -wrong).bit_length() - 1, c, up))
            covered |= (low_tt | low_ff) << shift
    if bad:
        low, c, up = min(bad)
        high = low + up * 3 ** (k - 1 - c)
        raise NonMonotoneTableError(TriTuple.decode(low, k).text, TriTuple.decode(high, k).text)
    # one decode, of the nonzero bytes only: the minimal FF cells follow
    # the TT ones, 3^k further up
    minimal = (tt | ff) & ~covered
    plane = minimal & tt | (minimal & ff) << 3**k
    data = np.frombuffer(plane.to_bytes(plane.bit_length() // 8 + 1, "little"), np.uint8)
    nonzero = np.flatnonzero(data)
    byte, bit = np.nonzero(np.unpackbits(data[nonzero, None], axis=1, bitorder="little"))
    above, codes = np.divmod(nonzero[byte] * 8 + bit, 3**k)
    digits = codes[:, None] // 3 ** np.arange(k - 1, -1, -1) % 3
    outputs = map(_TRITS.__getitem__, (above + 1).tolist())  # TT below 3^k, FF above
    return MonotoneFn(k, tuple(map(TraceEntry, map(_point, digits.tolist()), outputs)), name)


_TRITS = tuple(Tri)  # by code


def _point(cell: Sequence[int]) -> TriTuple:
    return TriTuple(tuple(map(_TRITS.__getitem__, cell)))


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


RECURSION_BOUND = 6  # largest arity the recursive sequentiality test takes


def is_m_sequential(fn: MonotoneFn) -> bool:
    """Recursive sequentiality: constant, or some argument index is
    strict and every way of fixing it leaves a sequential residual."""
    if fn.arity > RECURSION_BOUND:
        raise BoundExceededError(
            f"arity {fn.arity} above recursion bound {RECURSION_BOUND}"
        )
    return _mseq_table(table_of(fn).tobytes(), fn.arity)


@functools.lru_cache(maxsize=200_000)
def _mseq_table(cells: bytes, k: int) -> bool:
    cube = np.frombuffer(cells, dtype=np.int8).reshape((3,) * k)
    if (cube == cells[0]).all():
        return True
    for i in range(k):
        by_arg = np.moveaxis(cube, i, 0)
        if not by_arg[0].any() and all(
            _mseq_table(by_arg[v].tobytes(), k - 1) for v in (1, 2)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Trace file format, after the header `read_header` reads:
#   one '<tuple> -> <T|F>' line per entry
# ---------------------------------------------------------------------------

def format_trace(fn: MonotoneFn) -> str:
    lines = []
    if fn.name is not None:
        lines.append(f"# name: {fn.name}")
    lines.append(f"arity {fn.arity}")
    lines.extend(str(e) for e in fn.entries)
    return "\n".join(lines) + "\n"


NESTING_BOUND = 200  # deepest parenthesis nesting a term file or function name takes


def check_nesting(depth: int, line: int | None = None) -> None:
    """Reject nesting past NESTING_BOUND before the recursive parsers
    and evaluators of terms and names meet it."""
    if depth > NESTING_BOUND:
        raise FormatError(f"nesting deeper than bound {NESTING_BOUND}", line)


def content_lines(text: str, names: list[str] | None = None) -> Iterator[tuple[int, str]]:
    """The numbered, stripped lines of a file, skipping blank lines and
    '#' comments; the X of a '# name: X' comment goes to `names`, unless
    it is empty."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if names is not None and body.lower().startswith("name:") and body[5:].strip():
                names.append(body[5:].strip())
        elif line:
            yield lineno, line


def read_number(text: str, line: int | None = None) -> int | None:
    """The int that `text` spells in ASCII digits, or None for any other
    text, so that each format words its own error (str.isdigit() also
    takes superscript and other decimal digits, and int() a sign, an
    underscore or surrounding space).  More than DIGIT_LIMIT digits,
    which int() refuses, is a FormatError."""
    if not (text.isascii() and text.isdigit()):
        return None
    if len(text) > DIGIT_LIMIT:
        raise FormatError(f"number of {len(text)} digits above bound {DIGIT_LIMIT}", line)
    return int(text)


def read_header(
    text: str, names: list[str] | None = None
) -> tuple[int, Iterator[tuple[int, str]]]:
    """The header of trace and term files: exactly one 'arity <k>' line,
    k in ASCII digits and at least 1, before any other content line.
    Returns k and the content lines after it, which refuse a second
    arity line as they are read."""
    lines = content_lines(text, names)
    first = next(lines, None)
    if first is None:
        raise FormatError("missing arity line")
    lineno, line = first
    words = line.split()
    if words[0] != "arity":
        raise FormatError("content before arity line", lineno)
    arity = read_number(words[1], lineno) if len(words) == 2 else None
    if arity is None:
        raise FormatError(f"bad arity line {line!r}", lineno)
    if arity < 1:
        raise FormatError("arity must be >= 1", lineno)

    def body() -> Iterator[tuple[int, str]]:
        for lineno, line in lines:
            if line.split()[0] == "arity":
                raise FormatError("duplicate arity line", lineno)
            yield lineno, line

    return arity, body()


def parse_trace(text: str) -> MonotoneFn:
    names: list[str] = []
    arity, lines = read_header(text, names)
    rows: list[TraceEntry] = []
    for lineno, line in lines:
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
    return validate_trace(arity, rows, names[-1] if names else None)
