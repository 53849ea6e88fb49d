"""Logical relations over the flat booleans and brute-force invariance.

A basic relation of arity n is parameterized by index sets A subset-of B:
a tuple belongs to it when some A-coordinate is undefined or all
B-coordinates agree.  Finite intersections of these are the composite
relations used for the sharper separation arguments.

Membership is one rule per relation class, `mask`, which tests tuples
given as their n trit columns.  The listing (`member_matrix`) applies it
to all 3^n tuples decoded as columns, the invariance search to a
function's output columns, and witness replay
(`InvarianceWitness.verify`, through `member`) to one tuple's columns.

Invariance of a k-ary function under an n-ary relation means: pick any k
member tuples, stack them as rows, apply the function to each of the n
columns; the resulting row must again be a member.  The checker here
enumerates all |R|^k row selections with a broadcast kernel: a block of
column codes is a decoded prefix of picks plus a precomputed outer sum
over the last picks.  It returns the first counterexample in
lexicographic order of the picks, members taken in base-3 code order,
which makes witnesses deterministic across runs.  The budget gate runs
on every call; the search behind it is memoized per (function,
relation), as its result does not depend on the budget.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import DEFAULT_CONFIG, SearchConfig
from .errors import (
    ArityMismatchError,
    BoundExceededError,
    BudgetExceededError,
    FormatError,
    SoundnessError,
    exceeds,
    power_count,
    state_figure,
)
from .functions import (
    INDEX_LIMIT, MonotoneFn, check_cells, content_lines, read_number, table_of
)
from .lattice import Tri, TriTuple
from .plevels import PLevel, min_coherent_subset, p_level


class _Membership:
    """`member` for one tuple, through the class's vectorized `mask`, and
    the relation line `format_relation` writes as its text."""

    def __str__(self) -> str:
        return format_relation(self)

    def member(self, d: TriTuple) -> bool:
        if d.arity != self.n:
            raise ArityMismatchError(f"tuple arity {d.arity}, relation arity {self.n}")
        return bool(self.mask(np.array(d.entries, dtype=np.int8)[:, None])[0])


@dataclass(frozen=True)
class PreseqRel(_Membership):
    """Basic relation S^n_{A,B}: some A-coordinate undefined, or all
    B-coordinates equal."""

    n: int
    a: frozenset[int]
    b: frozenset[int]

    def __post_init__(self):
        if self.n < 1:
            raise ArityMismatchError("relation arity must be >= 1")
        if not self.a <= self.b:
            raise FormatError(f"A must be a subset of B: {set(self.a)} vs {set(self.b)}")
        if not all(1 <= i <= self.n for i in self.b):
            raise FormatError(f"B must fit in 1..{self.n}: {set(self.b)}")

    def mask(self, cols) -> np.ndarray:
        """Membership of the tuples spelled by n trit columns, an (n, r)
        array or a list of n 1-D arrays: every B-column equals the
        first, or some A-column is undefined (code 0, a plain int, which
        numpy compares without casting the column as it does for BOT)."""
        b = sorted(self.b)
        keep = np.ones(len(cols[0]), dtype=bool)
        for i in b[1:]:
            keep &= cols[i - 1] == cols[b[0] - 1]
        for i in self.a:
            keep |= cols[i - 1] == 0
        return keep


@dataclass(frozen=True)
class SeqRel(_Membership):
    """Finite intersection of basic relations of one arity."""

    conjuncts: tuple[PreseqRel, ...]

    def __post_init__(self):
        if not self.conjuncts:
            raise FormatError("composite relation needs at least one conjunct")
        n = self.conjuncts[0].n
        if any(c.n != n for c in self.conjuncts):
            raise ArityMismatchError("conjuncts must share one arity")

    @property
    def n(self) -> int:
        return self.conjuncts[0].n

    def mask(self, cols) -> np.ndarray:
        """Membership of the tuples spelled by n trit columns in every
        conjunct."""
        return functools.reduce(np.logical_and, (c.mask(cols) for c in self.conjuncts))


Relation = PreseqRel | SeqRel


def canonical_equal(m: int) -> PreseqRel:
    """S^m with A = B = {1..m}; invariance threshold for the first
    level coordinate."""
    idx = frozenset(range(1, m + 1))
    return PreseqRel(max(m, 1), idx, idx)


def canonical_strict(m: int) -> PreseqRel:
    """S^{m+1} with A = {1..m} strictly inside B = {1..m+1}; invariance
    threshold for the second level coordinate."""
    return PreseqRel(m + 1, frozenset(range(1, m + 1)), frozenset(range(1, m + 2)))


def basic_members(rel: PreseqRel, k: int = 1) -> int | str:
    """Member count of a basic relation in closed form, raised to the
    k-th power (the states of an invariance check of a k-ary function),
    as `errors.power_count` gives it, without enumerating its 3^n
    tuples: the non-members have every A-coordinate defined and
    B-coordinates not all equal, so the members are 3^(n - |B|) times
    those on B alone.  For the canonical families this is 3^m - 2^m + 2
    (equal, m >= 1) and 3^(m+1) - 3*2^m + 2 (strict, m >= 1)."""
    a, b = len(rel.a), len(rel.b)
    all_equal = 1 if b == 0 else (2 if a else 3)
    return power_count((3, (rel.n - b) * k), (3**b - 2**a * 3 ** (b - a) + all_equal, k))


def predict_invariant(level: PLevel, rel: PreseqRel) -> bool:
    """Invariance criterion for a basic relation, read off the level:
    |A| = |B| at most the first coordinate, or |A| < |B| with |A| at
    most the second."""
    size_a, size_b = len(rel.a), len(rel.b)
    if size_a == size_b:
        return size_a <= level.i
    return size_a <= level.j


def level_separator(pl: PLevel, pr: PLevel) -> PreseqRel | None:
    """The canonical relation that levels pl and pr say separates left
    from right: one the right function respects and the left one breaks,
    so the left is not definable from the right.  A higher level means
    invariance under more relations, i.e. a weaker function; the
    equal-index family is taken first."""
    if pl.i < pr.i:
        return canonical_equal(pl.i + 1)
    if pl.j < pr.j:
        return canonical_strict(pl.j + 1)
    return None


def canonicalize(rel: PreseqRel) -> PreseqRel:
    """Collapse a basic relation to its invariance-equivalent canonical
    form: only |A| and whether A = B matter.  The degenerate A = B = {}
    relation maps to the universal arity-1 relation."""
    size = len(rel.a)
    if rel.a == rel.b:
        if size == 0:
            return PreseqRel(1, frozenset(), frozenset())
        return canonical_equal(size)
    return canonical_strict(size)


def chain_relation(j: int) -> SeqRel:
    """Arity-j intersection of the equal-family prefixes {1..m} for
    m = 2..j; sees strictly more than any basic relation alone."""
    if j < 2:
        raise FormatError("chain relations need arity >= 2")
    return SeqRel(
        tuple(
            PreseqRel(j, frozenset(range(1, m + 1)), frozenset(range(1, m + 1)))
            for m in range(2, j + 1)
        )
    )


# ---------------------------------------------------------------------------
# Brute-force invariance
# ---------------------------------------------------------------------------

CHUNK = 1 << 18  # codes or row selections decoded per vectorized block


@functools.lru_cache(maxsize=1024)
def member_matrix(rel: Relation) -> np.ndarray:
    """Member tuples as an (m, n) int8 array, sorted by base-3 code:
    `rel.mask` tests all 3^n tuples, CHUNK codes at a time decoded as
    columns, and each block's kept codes are decoded again into one
    preallocated array.  Cached and shared, so read-only.  A listing
    above the cell cap is refused whatever the budget (`check_cells`)."""
    check_cells(rel.n, "relation enumeration")
    total = 3**rel.n
    shape = (3,) * rel.n
    keep = np.empty(total, dtype=bool)
    for start in range(0, total, CHUNK):
        codes = np.arange(start, min(start + CHUNK, total))
        keep[start : start + CHUNK] = rel.mask(np.unravel_index(codes, shape))
    mat = np.empty((np.count_nonzero(keep), rel.n), dtype=np.int8)
    row = 0
    for start in range(0, total, CHUNK):
        codes = start + np.flatnonzero(keep[start : start + CHUNK])
        mat[row : row + len(codes)].T[:] = np.unravel_index(codes, shape)
        row += len(codes)
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True)
class InvarianceWitness:
    """A replayable counterexample: k member rows whose columnwise image
    under the function leaves the relation."""

    relation: Relation
    inputs: tuple[TriTuple, ...]
    output: TriTuple

    def verify(self, fn: MonotoneFn) -> bool:
        if len(self.inputs) != fn.arity:
            return False
        n = self.relation.n
        if any(t.arity != n for t in self.inputs) or self.output.arity != n:
            return False
        if not all(self.relation.member(t) for t in self.inputs):
            return False
        cols = [
            TriTuple(tuple(t.entries[c] for t in self.inputs)) for c in range(n)
        ]
        computed = TriTuple(tuple(fn.eval(col) for col in cols))
        return computed == self.output and not self.relation.member(self.output)


def invariance_counterexample(
    fn: MonotoneFn, rel: Relation, config: SearchConfig = DEFAULT_CONFIG
) -> InvarianceWitness | None:
    """Exhaustive search over all |R|^k row selections; None means
    invariant.  Raises BudgetExceededError, naming `config.budget`,
    before touching a search whose state count, or whose relation's 3^n
    tuples, are above it; a basic relation's state count is known before
    enumerating it, so that check comes first.  Within the budget, a
    count above INDEX_LIMIT (no int64 index numbers it) and a listing or
    table above the cell cap (`check_cells`) raise BoundExceededError;
    the table's check reads only the arity, so it comes before the
    listing.
    Each count comes from `errors.power_count`, so one of more than 4,300
    digits (a large n or k) is refused by its logarithm, uncomputed.

    The gate runs on every call; the search behind it does not read the
    budget and is memoized per (fn, rel)."""

    def refuse(required: int | str, what: str) -> None:
        if exceeds(required, config.budget):
            raise BudgetExceededError(required, config.budget, what=what)
        if exceeds(required, INDEX_LIMIT):
            raise BoundExceededError(f"{what} needs {state_figure(required)} states, above 2^63")

    k = fn.arity
    if isinstance(rel, PreseqRel):
        refuse(basic_members(rel, k), "invariance check")
    refuse(power_count((3, rel.n)), "relation enumeration")
    check_cells(k, "function table")
    refuse(power_count((len(member_matrix(rel)), k)), "invariance check")
    return _first_counterexample(fn, rel)


@functools.lru_cache(maxsize=4096)
def _first_counterexample(fn: MonotoneFn, rel: Relation) -> InvarianceWitness | None:
    """The first of the m^k row selections, in lexicographic order of
    their picks, whose columnwise image leaves the relation.

    Slot t of a selection adds its row's trits, times 3^(k-1-t) in intp,
    to the codes of the n columns.  The last s slots, the most with
    m^s <= CHUNK, are summed once into `suffix`, every pick of them in
    order; a block of prefixes (the first k - s picks) is decoded when
    it is reached, its picks gathered from the member matrix, and
    broadcast against it, so that a block holds at most CHUNK selections
    in row-major, that is lexicographic, order.  The table looked up at
    each column's codes gives that output column, and `rel.mask` tests
    the output rows."""
    mem = member_matrix(rel)
    m, n, k = len(mem), rel.n, fn.arity
    table = table_of(fn)
    s = 0
    while s < k and m ** (s + 1) <= CHUNK:
        s += 1
    suffix = np.zeros((n, 1), dtype=np.intp)
    for t in range(k - s, k):
        weight = np.multiply(mem.T[:, None, :], 3 ** (k - 1 - t), dtype=np.intp)
        suffix = (suffix[:, :, None] + weight).reshape(n, -1)
    width = suffix.shape[1]
    prefixes = m ** (k - s)
    step = CHUNK // width
    for start in range(0, prefixes, step):
        rest = np.arange(start, min(start + step, prefixes))
        prefix = np.zeros((n, len(rest)), dtype=np.intp)
        for t in range(k - s - 1, -1, -1):
            rest, pick = np.divmod(rest, m)
            prefix += np.multiply(mem[pick].T, 3 ** (k - 1 - t), dtype=np.intp)
        out = [table[(p[:, None] + q).ravel()] for p, q in zip(prefix, suffix)]
        good = rel.mask(out)
        if not good.all():
            bad = int(np.argmin(good))
            index = start * width + bad
            picks = []
            for _ in range(k):
                index, pick = divmod(index, m)
                picks.append(pick)
            return InvarianceWitness(
                rel,
                tuple(TriTuple(tuple(map(Tri, row.tolist()))) for row in mem[picks[::-1]]),
                TriTuple(tuple(Tri(int(col[bad])) for col in out)),
            )
    return None


def is_invariant(
    fn: MonotoneFn, rel: Relation, config: SearchConfig = DEFAULT_CONFIG
) -> bool:
    return invariance_counterexample(fn, rel, config) is None


# ---------------------------------------------------------------------------
# Separating-relation search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Separation:
    """Evidence that `left` is not definable from `right`: a relation
    the right function respects and the left function provably breaks.

    The witness side is always verified by replay.  The invariant side
    is verified by full enumeration when it fits the budget; otherwise
    it rests on the level characterization, and `invariant_method`
    records which route was taken.
    """

    relation: Relation
    witness: InvarianceWitness
    invariant_method: str  # "brute" | "level"
    invariant_states: int | str  # a count, or its figure `~10^E` (errors.power_count)


@dataclass(frozen=True)
class SeparationOutcome:
    found: Separation | None
    skipped: tuple[str, ...]


def constructed_witness(fn: MonotoneFn, rel: PreseqRel) -> InvarianceWitness | None:
    """Build a counterexample for a canonical relation directly from a
    minimal coherent (or coherent bivalued) trace subset, then replay it.

    Equal-family relation of arity m: the columns are a bivalued
    coherent subset, padded by repeating the first column.  Strict
    family S^{m+1}_{m,m+1}: the columns are a coherent subset padded
    likewise, plus one final column holding the pointwise meet (the
    function is undefined there, breaking the all-equal clause).  Any
    other relation fails the replay.
    """
    equal = rel.a == rel.b
    subset = min_coherent_subset(fn, bivalued=equal)
    if subset is None or len(subset) > len(rel.a):
        return None
    columns = list(subset) + [subset[0]] * (len(rel.a) - len(subset))
    if not equal:
        columns.append(functools.reduce(TriTuple.meet, columns))
    rows = tuple(
        TriTuple(tuple(col.entries[r] for col in columns)) for r in range(fn.arity)
    )
    output = TriTuple(tuple(fn.eval(col) for col in columns))
    witness = InvarianceWitness(rel, rows, output)
    return witness if witness.verify(fn) else None


CHAIN_ARITY = 5  # widest chain relation in the separator pool
# chain2 is left out: its one conjunct, |A| = |B| = 2, is respected at
# every level, as no level's first coordinate is below 2
CHAIN_POOL = tuple(chain_relation(j) for j in range(3, CHAIN_ARITY + 1))


def find_separating_relation(
    left: MonotoneFn,
    right: MonotoneFn,
    config: SearchConfig = DEFAULT_CONFIG,
    extra_relations: Iterable[Relation] = (),
) -> SeparationOutcome:
    """Look for a relation certifying left-not-definable-from-right.

    Tried in order: the canonical relation the level comparison
    predicts to separate; CHAIN_POOL, the chain relations of arity 3 to
    CHAIN_ARITY; then any user-supplied relations, which is where a
    wider relation goes.  A pool relation is not searched when the left
    function respects each of its conjuncts by level
    (`predict_invariant`): the relations a function respects are closed
    under intersection, so it has no left witness.  A None outcome only
    means "no separator found within bounds" and never implies
    definability.
    """
    skipped: list[str] = []
    level = p_level(left)
    rel = level_separator(level, p_level(right))
    if rel is not None:
        witness = constructed_witness(left, rel)
        if witness is None:
            raise SoundnessError(
                f"{left.label} predicted non-invariant under {rel} "
                "but the constructed witness does not replay"
            )
        states = basic_members(rel, right.arity)
        try:
            invariant = is_invariant(right, rel, config)
        except (BudgetExceededError, BoundExceededError) as exc:
            skipped.append(f"{rel}: invariant side skipped ({exc}), justified by level instead")
            method = "level"
        else:
            if not invariant:
                raise SoundnessError(
                    f"{right.label} predicted invariant under {rel} "
                    "but a counterexample exists"
                )
            method = "brute"
        return SeparationOutcome(
            Separation(rel, witness, method, states), tuple(skipped)
        )

    for rel in (*CHAIN_POOL, *extra_relations):
        conjuncts = rel.conjuncts if isinstance(rel, SeqRel) else (rel,)
        if all(predict_invariant(level, c) for c in conjuncts):
            continue
        try:
            right_side = invariance_counterexample(right, rel, config)
            if right_side is not None:
                continue
            witness = invariance_counterexample(left, rel, config)
        except (BudgetExceededError, BoundExceededError) as exc:
            skipped.append(f"{rel}: skipped ({exc})")
            continue
        if witness is not None:
            states = len(member_matrix(rel)) ** right.arity
            return SeparationOutcome(
                Separation(rel, witness, "brute", states), tuple(skipped)
            )
    return SeparationOutcome(None, tuple(skipped))


# ---------------------------------------------------------------------------
# Relation file format, one conjunct rule for both kinds of line:
#   preseq n=4 A=1,2 B=1,2,3          (one conjunct; A= for the empty set)
#   seqrel n=3 {A=1,2 B=1,2} {A=1,2,3 B=1,2,3}   (one or more, in braces)
# ---------------------------------------------------------------------------

_LINE_RE = re.compile(r"^(preseq|seqrel)\s+n=([0-9]+)\s*(.*)$")
_CONJUNCT_RE = re.compile(r"\{\s*A=(\S*)\s+B=(\S*)\s*\}")


def _parse_indices(text: str, lineno: int | None) -> frozenset[int]:
    if not text:
        return frozenset()
    indices = [read_number(part, lineno) for part in text.split(",")]
    if None in indices:
        raise FormatError(f"bad index list {text!r}", lineno)
    return frozenset(indices)


def _conjunct(n: int, a_text: str, b_text: str, lineno: int | None) -> PreseqRel:
    a, b = _parse_indices(a_text, lineno), _parse_indices(b_text, lineno)
    try:
        return PreseqRel(n, a, b)
    except (FormatError, ArityMismatchError) as exc:
        raise FormatError(str(exc), lineno) from None


def parse_relation(line: str, lineno: int | None = None) -> Relation:
    m = _LINE_RE.match(line.strip())
    if not m:
        raise FormatError(f"bad relation line {line!r}", lineno)
    kind, n_text, rest = m.groups()
    n = read_number(n_text, lineno)
    if n < 1:
        raise FormatError("relation arity must be >= 1 in files", lineno)
    if kind == "preseq":
        rest = "{" + rest + "}"  # its one conjunct, written without braces
    pairs = _CONJUNCT_RE.findall(rest)
    if not pairs or _CONJUNCT_RE.sub("", rest).strip() or kind == "preseq" and len(pairs) > 1:
        raise FormatError(f"bad relation line {line!r}", lineno)
    conjuncts = tuple(_conjunct(n, a_text, b_text, lineno) for a_text, b_text in pairs)
    return conjuncts[0] if kind == "preseq" else SeqRel(conjuncts)


def parse_relation_file(text: str) -> list[Relation]:
    return [parse_relation(line, lineno) for lineno, line in content_lines(text)]


def format_relation(rel: Relation) -> str:
    """The line `parse_relation` reads back, and the relation's `str`."""
    kind, conjuncts = ("seqrel", rel.conjuncts) if isinstance(rel, SeqRel) else ("preseq", (rel,))
    text = " ".join(
        "{A=%s B=%s}" % (",".join(map(str, sorted(c.a))), ",".join(map(str, sorted(c.b))))
        for c in conjuncts
    )
    return f"{kind} n={rel.n} " + (text if kind == "seqrel" else text[1:-1])
