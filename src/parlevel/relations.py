"""Logical relations over the flat booleans and brute-force invariance.

A basic relation of arity n is parameterized by index sets A subset-of B:
a tuple belongs to it when some A-coordinate is undefined or all
B-coordinates agree.  Finite intersections of these are the composite
relations used for the sharper separation arguments.

Membership is one rule per relation class, `mask`, which tests tuples
given as their n trit columns.  The listing (`member_matrix`) applies it
to all 3^n tuples decoded as columns, the invariance search to a
function's output columns, and witness replay
(`InvarianceWitness.verify`) to a witness's k+1 rows at once.

Invariance of a k-ary function under an n-ary relation means: pick any k
member tuples, stack them as rows, apply the function to each of the n
columns; the resulting row must again be a member.  The checker returns
the first counterexample in lexicographic order of the picks, members
taken in base-3 code order, which makes witnesses deterministic across
runs, but it walks residual states, not the |R|^k row selections.
After t picks a column's output depends only on the subfunction of the
function its first t trits leave (`_residuals` numbers them level by
level from the table), so a state is the n-tuple of its columns'
subfunction ids.  Each level adds every member row to every state of the
level before, in blocks, and keeps each new state only where it first
occurs, by its exact key (`_state_keys`) and the sorted keys kept before
(`_first_states`, which numbers `_residuals`' triples too); at the last
level the states are the output rows, which `mask` tests.  Two prefixes
that reach one state have the same bad continuations, and a state kept
at its first occurrence carries its lexicographically least prefix, so
the first bad output row gives the first bad selection.

Coordinates with the same (in A, in B) signature in every conjunct form
a symmetry class (`symmetry_classes`), and the first pick runs only over
the member rows sorted within each class.  Permuting a class maps the
relation onto itself, so a selection and its permuted copy have the
same outcome; the first bad selection is the least of its copies, and
the least copy has its columns sorted within each class, hence its first
pick too.  The budget, the 2^63 limit and a certificate's `states` still
count all |R|^k selections the proof covers, not the states walked.  The
budget gate runs on every call; the search behind it is memoized per
(function, relation), as its result does not depend on the budget.
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
    power_count,
)
from .functions import MonotoneFn, check_cells, content_lines, read_number, table_of
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

CHUNK = 1 << 18  # codes, or invariance cells (states x members x n), per vectorized block
INDEX_LIMIT = 2**63  # selections or codes an int64 index can number


@functools.lru_cache(maxsize=1024)
def member_matrix(rel: Relation) -> np.ndarray:
    """Member tuples as an (m, n) int8 array, sorted by base-3 code and
    stored column-major, so its transpose is the n contiguous columns the
    invariance search adds: `rel.mask` tests all 3^n tuples, CHUNK codes
    at a time decoded as columns, and each block's kept codes are
    decoded again into one preallocated array.  Cached and shared, so
    read-only.  A listing
    above the cell cap is refused whatever the budget (`check_cells`)."""
    check_cells(rel.n, "relation enumeration")
    total = 3**rel.n
    shape = (3,) * rel.n
    keep = np.empty(total, dtype=bool)
    for start in range(0, total, CHUNK):
        codes = np.arange(start, min(start + CHUNK, total))
        keep[start : start + CHUNK] = rel.mask(np.unravel_index(codes, shape))
    mat = np.empty((np.count_nonzero(keep), rel.n), dtype=np.int8, order="F")
    row = 0
    for start in range(0, total, CHUNK):
        codes = start + np.flatnonzero(keep[start : start + CHUNK])
        mat[row : row + len(codes)].T[:] = np.unravel_index(codes, shape)
        row += len(codes)
    mat.flags.writeable = False
    return mat


def symmetry_classes(rel: Relation) -> tuple[tuple[int, ...], ...]:
    """The coordinates 1..n grouped by their (in A, in B) signature in
    every conjunct, each class in increasing order and the classes by
    their first coordinate.  A permutation within a class maps every
    conjunct, and so the relation, onto itself."""
    conjuncts = rel.conjuncts if isinstance(rel, SeqRel) else (rel,)
    classes: dict[tuple[tuple[bool, bool], ...], list[int]] = {}
    for i in range(1, rel.n + 1):
        classes.setdefault(tuple((i in c.a, i in c.b) for c in conjuncts), []).append(i)
    return tuple(map(tuple, classes.values()))


@functools.lru_cache(maxsize=1024)
def _class_order(rel: Relation) -> np.ndarray:
    """`lead`, cached per relation: the member rows (indices into
    `member_matrix`) whose trits are nondecreasing along every symmetry
    class."""
    lo, hi = np.array(
        [(a - 1, b - 1) for c in symmetry_classes(rel) for a, b in zip(c, c[1:])],
        dtype=np.intp,
    ).reshape(-1, 2).T
    mem = member_matrix(rel).T
    return np.flatnonzero((mem[lo] <= mem[hi]).all(axis=0))


def _id_dtype(count: int) -> type:
    """The smallest signed integer type that numbers `count` ids."""
    return np.int8 if count <= 2**7 else np.int16 if count <= 2**15 else np.int32


def _state_keys(ids: np.ndarray, count: int) -> np.ndarray:
    """Each column of `ids`, n ids below `count`, as one exact key: the
    ids read as base-`count` digits, as many to an int64 word as keep it
    below 2^63, and several words viewed as one structured scalar.  Keys
    sort as the columns do, digit by digit."""
    per_word = max(p for p in range(1, len(ids) + 1) if count**p <= INDEX_LIMIT)
    words = []
    for a in range(0, len(ids), per_word):
        word = ids[a].astype(np.int64)
        for digit in ids[a + 1 : a + per_word]:
            word *= count
            word += digit
        words.append(word)
    if len(words) == 1:
        return words[0]
    fields = np.dtype([(f"w{i}", np.int64) for i in range(len(words))])
    return np.stack(words, axis=1).view(fields).ravel()


def _first_states(
    states: np.ndarray, count: int, seen: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The positions, in increasing order, of the first occurrences of
    the distinct columns of `states` (ids below `count`) whose keys
    (`_state_keys`) are not in `seen`, the sorted keys kept by earlier
    blocks (None at the first); and `seen` with their keys inserted.
    Equal keys sort together, the least position in a run is a first
    occurrence, and the distinct keys are looked up in `seen` by binary
    search, so a block costs its own sort and one pass over `seen` (and
    no `np.isin` or `np.unique`, which can import `numpy.ma`)."""
    keys = _state_keys(states, count)
    order = np.argsort(keys)
    ordered = keys[order]
    runs = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    first = np.minimum.reduceat(order, runs)
    distinct = ordered[runs]
    if seen is None:
        seen = distinct
    else:
        place = np.searchsorted(seen, distinct)
        new = seen.take(place, mode="clip") != distinct
        first, seen = first[new], np.insert(seen, place[new], distinct[new])
    first.sort()
    return first, seen


@functools.lru_cache(maxsize=4096)
def _residuals(fn: MonotoneFn) -> tuple[np.ndarray, ...]:
    """The subfunctions of fn left by fixing its first t arguments,
    numbered level by level for t = 0..k, cached per function and
    read-only.  Entry t is `trans[t]`: `trans[t][3*i + v]` is the id at
    level t+1 of what level-t subfunction i leaves when its next
    argument is v.  Level 0 is fn itself, id 0; level k's ids are the
    output trits, so the last entry gives outputs.

    Built bottom-up from `table_of(fn)`: a level-t subfunction is the
    triple of its three level-(t+1) children, and a level's ids rank its
    distinct triples' keys (`_state_keys`), one int64 word
    (id0*b + id1)*b + id2 for b ids at level t+1: within the cell cap
    (k <= 16) b <= 3^13, as level t+1 has at most 3^(t+1) prefixes and
    3^(3^(k-t-1)) tables.  When no more keys are possible than prefixes
    they are flagged in a table and ranked by its cumulative sum, held in
    the ids' dtype; otherwise `_first_states` dedupes them block by
    block and ranks them by place in its sorted keys.  Keys are formed
    CHUNK prefixes at a time and ids stored as int8 or int16 where they
    fit (`_id_dtype`), so no int64 array of the table's size is made."""
    ids = table_of(fn)
    trans = []
    for _ in range(fn.arity):
        children = ids.reshape(-1, 3)
        base = int(ids.max()) + 1
        blocks = [(a, children[a : a + CHUNK].T) for a in range(0, len(children), CHUNK)]
        if base**3 <= len(children):
            hit = np.zeros(base**3, dtype=bool)
            for _, block in blocks:
                hit[_state_keys(block, base)] = True
            found = np.flatnonzero(hit)
            rank = (np.cumsum(hit) - 1).astype(_id_dtype(len(found))).take
        else:
            found = None
            for _, block in blocks:
                found = _first_states(block, base, found)[1]
            rank = functools.partial(np.searchsorted, found)
        ids = np.empty(len(children), dtype=_id_dtype(len(found)))
        for a, block in blocks:
            ids[a : a + CHUNK] = rank(_state_keys(block, base))
        level = np.stack((found // base**2, found // base % base, found % base), axis=1)
        trans.append(level.astype(children.dtype).ravel())
        trans[-1].flags.writeable = False
    return tuple(reversed(trans))


@dataclass(frozen=True)
class InvarianceWitness:
    """A replayable counterexample: k member rows whose columnwise image
    under the function leaves the relation."""

    relation: Relation
    inputs: tuple[TriTuple, ...]
    output: TriTuple

    def verify(self, fn: MonotoneFn) -> bool:
        """The k input rows are members, the output row is not, and it is
        the function's image of the rows' columns.  All k+1 rows are
        tested in one `mask` call, as the columns of an (n, k+1) array."""
        rows = (*self.inputs, self.output)
        if len(self.inputs) != fn.arity or any(t.arity != self.relation.n for t in rows):
            return False
        good = self.relation.mask(np.array([t.entries for t in rows], dtype=np.int8).T)
        if not good[:-1].all() or good[-1]:
            return False
        cols = zip(*(t.entries for t in self.inputs))
        return tuple(fn.eval(TriTuple(col)) for col in cols) == self.output.entries


def invariance_counterexample(
    fn: MonotoneFn, rel: Relation, config: SearchConfig = DEFAULT_CONFIG
) -> InvarianceWitness | None:
    """Exhaustive search over all |R|^k row selections; None means
    invariant.  The gate checks in one order: the cell cap on the
    relation's listing and on the function's table (`check_cells`,
    reading only n and k), then each state count against INDEX_LIMIT
    (no int64 index numbers more), then against `config.budget`.  A cap
    or 2^63 raises BoundExceededError at any budget; only a count a
    larger budget would admit raises BudgetExceededError.  Within the
    caps every count is an int of at most 3^256; a basic relation's
    count is known in closed form, so it is checked before the listing.

    The gate runs on every call; the search behind it does not read the
    budget and is memoized per (fn, rel)."""
    k = fn.arity
    check_cells(rel.n, "relation enumeration")
    check_cells(k, "function table")

    def refuse(required: int, what: str) -> None:
        if required > INDEX_LIMIT:
            raise BoundExceededError(f"{what} needs {required} states, above 2^63")
        if required > config.budget:
            raise BudgetExceededError(required, config.budget, what=what)

    if isinstance(rel, PreseqRel):
        refuse(basic_members(rel, k), "invariance check")
    refuse(3**rel.n, "relation enumeration")
    refuse(len(member_matrix(rel)) ** k, "invariance check")
    return _first_counterexample(fn, rel)


def _walk_back(
    rel: Relation, lead: np.ndarray, origins: list[np.ndarray], bad: int, output: np.ndarray
) -> InvarianceWitness:
    """The witness of candidate `bad` of the last level, whose output
    row is `output`.  A candidate's number is parent * m + pick; the
    first level's one parent is fn's state, so its numbers are places in
    `lead`.  origins[t] holds, for each state kept at level t+1, the
    number of the candidate it came from."""
    mem = member_matrix(rel)
    picks = []
    for origin in reversed(origins):
        bad, pick = divmod(bad, len(mem))
        picks.append(pick)
        bad = int(origin[bad])
    picks.append(int(lead[bad]))
    return InvarianceWitness(
        rel,
        tuple(TriTuple(tuple(map(Tri, row.tolist()))) for row in mem[picks[::-1]]),
        TriTuple(tuple(map(Tri, output.tolist()))),
    )


@functools.lru_cache(maxsize=4096)
def _first_counterexample(fn: MonotoneFn, rel: Relation) -> InvarianceWitness | None:
    """The first of the m^k row selections, in lexicographic order of
    their picks, whose columnwise image leaves the relation.

    The walk goes over residual states, not selections.  After t picks,
    column j's output depends only on the subfunction of fn its first t
    trits leave (`_residuals`), so a state is the n-tuple of those
    subfunction ids, one per column, and level 0 is one state, fn in
    every column.  Level t+1's candidates are the level-t states, in
    order, each with every member row, in order: candidate
    parent * m + pick.  A block is an outer sum of a slice of states and
    a slice of members, at most CHUNK cells (states x members x n) or
    part of one state's row, looked up in `trans[t]`.  A candidate state
    is kept only where it first occurs (`_first_states`; a state first
    met in an earlier block is dropped), with its candidate number for
    the walk back.  A level whose `trans` is one-to-one keeps all its
    candidates, as it maps distinct states to distinct states.  At the
    last level the states are the
    output rows: `rel.mask` tests them, and the first bad one is walked
    back through the kept candidate numbers to its picks (`_walk_back`).

    Why the witness is the first bad selection: two prefixes that reach
    one state have the same bad continuations.  The least prefix to
    reach a state extends the least prefix of its parent's state, so
    states kept in order of first occurrence each carry their least
    prefix, and the first bad output row, reached from the least
    prefix of its state, is the first bad selection.

    The first pick runs over `lead` only, the member rows sorted within
    each symmetry class (`symmetry_classes`), and those states are kept
    unmerged.  A permutation within a class maps selections to
    selections of the same outcome, so the first bad selection is the
    least in its orbit, and the least one has its columns sorted within
    each class (swapping an out-of-order pair of a class gives a smaller
    selection), so its first pick is in `lead`.  The gate, the 2^63
    limit and a certificate's `states` count all m^k selections the
    proof covers, not the states walked."""
    cols = member_matrix(rel).T  # contiguous: the matrix is column-major
    n, k = rel.n, fn.arity
    lead = _class_order(rel)
    residuals = _residuals(fn)
    states = np.zeros((n, 1), dtype=np.int8)  # level 0: fn in every column
    origins: list[np.ndarray] = []  # per level, the candidate each state came from
    for t, trans in enumerate(residuals):
        last = t == k - 1
        rows = cols.take(lead, axis=1) if t == 0 else cols
        size = rows.shape[1]
        width = min(size, max(1, CHUNK // n))
        height = max(1, CHUNK // (size * n))
        count = None if last else len(residuals[t + 1]) // 3
        seen = None
        kept: list[tuple[np.ndarray, np.ndarray]] = []
        for a in range(0, states.shape[1], height):
            shifted = np.multiply(states[:, a : a + height, None], 3, dtype=np.intp)
            for c in range(0, size, width):
                # candidate (state a + i, row c + j) is number a*size + c + q
                # of the level, q its place in the block: the block holds
                # whole rows of members, or one state
                block = trans.take(shifted + rows[:, None, c : c + width]).reshape(n, -1)
                if last:
                    good = rel.mask(block)
                    if good.all():
                        continue
                    bad = int(np.argmin(good))
                    return _walk_back(rel, lead, origins, a * size + c + bad, block[:, bad])
                if t == 0 or count == len(trans):  # first picks, or one-to-one
                    first = np.arange(block.shape[1])
                else:
                    first, seen = _first_states(block, count, seen)
                    block = block[:, first]
                kept.append((block, first + (a * size + c)))
        if not last:
            blocks, firsts = zip(*kept)
            states = np.concatenate(blocks, axis=1)
            origins.append(np.concatenate(firsts))
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


@functools.lru_cache(maxsize=4096)
def constructed_witness(fn: MonotoneFn, rel: PreseqRel) -> InvarianceWitness | None:
    """Build a counterexample for a canonical relation directly from a
    minimal coherent (or coherent bivalued) trace subset, then replay it.
    Memoized per (fn, rel), as `_first_counterexample` is.

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
