"""The flat three-valued boolean domain and tuples over it.

Values are ordered bottom-below-everything; the two defined values are
incomparable.  Tuples carry the pointwise order.  Tuples are encoded as
base-3 integers (one trit per coordinate, first coordinate most
significant) so that enumeration order, set membership and vectorized
lookups are cheap; the encoding never leaks into file formats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ArityMismatchError, FormatError


class Tri(enum.IntEnum):
    """One flat boolean value: undefined, true or false."""

    BOT = 0
    TT = 1
    FF = 2

    @property
    def char(self) -> str:
        return "_TF"[self]

    @classmethod
    def from_char(cls, ch: str) -> "Tri":
        try:
            return _CHAR_TO_TRI[ch]
        except KeyError:
            raise FormatError(f"bad value character {ch!r} (want one of T F _)")


_CHAR_TO_TRI = {"_": Tri.BOT, "T": Tri.TT, "F": Tri.FF}

BOT, TT, FF = Tri.BOT, Tri.TT, Tri.FF


def flat_leq(a: Tri, b: Tri) -> bool:
    return a == BOT or a == b


def flat_lub(a: Tri, b: Tri) -> Tri | None:
    """Least upper bound of two values, or None if there is none."""
    if a == BOT:
        return b
    if b == BOT or a == b:
        return a
    return None


@dataclass(frozen=True)
class TriTuple:
    """A point of the k-fold product of the flat boolean domain, k >= 1."""

    entries: tuple[Tri, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise ArityMismatchError("tuples must have arity >= 1")

    @property
    def arity(self) -> int:
        return len(self.entries)

    @classmethod
    def from_text(cls, text: str) -> "TriTuple":
        return cls(tuple(Tri.from_char(ch) for ch in text))

    @property
    def text(self) -> str:
        return "".join(v.char for v in self.entries)

    def encode(self) -> int:
        """Base-3 code, first coordinate most significant."""
        code = 0
        for v in self.entries:
            code = code * 3 + v
        return code

    @classmethod
    def decode(cls, code: int, arity: int) -> "TriTuple":
        vals = []
        for _ in range(arity):
            code, r = divmod(code, 3)
            vals.append(Tri(r))
        return cls(tuple(reversed(vals)))

    def meet(self, other: "TriTuple") -> "TriTuple":
        _require_same_arity(self, other)
        return TriTuple(
            tuple(a if a == b else BOT for a, b in zip(self.entries, other.entries))
        )

    def __str__(self) -> str:
        return self.text


def _require_same_arity(x: TriTuple, y: TriTuple) -> None:
    if x.arity != y.arity:
        raise ArityMismatchError(f"arity mismatch: {x.arity} vs {y.arity}")


def leq(x: TriTuple, y: TriTuple) -> bool:
    """Pointwise flat order on tuples."""
    _require_same_arity(x, y)
    return all(flat_leq(a, b) for a, b in zip(x.entries, y.entries))


def compatible(x: TriTuple, y: TriTuple) -> bool:
    """True iff x and y have a common upper bound (pointwise)."""
    _require_same_arity(x, y)
    return all(a == BOT or b == BOT or a == b for a, b in zip(x.entries, y.entries))


def lub(x: TriTuple, y: TriTuple) -> TriTuple | None:
    """Pointwise least upper bound, or None when incompatible."""
    _require_same_arity(x, y)
    out = []
    for a, b in zip(x.entries, y.entries):
        v = flat_lub(a, b)
        if v is None:
            return None
        out.append(v)
    return TriTuple(tuple(out))


def _shared_arity(tuples: Sequence[TriTuple]) -> int | None:
    if not tuples:
        return None
    k = tuples[0].arity
    for t in tuples[1:]:
        if t.arity != k:
            raise ArityMismatchError(f"arity mismatch: {k} vs {t.arity}")
    return k


def is_coherent(tuples: Iterable[TriTuple]) -> bool:
    """Linear coherence: at every coordinate, some tuple is undefined or
    all tuples agree.  The empty set is vacuously coherent."""
    rows = list(tuples)
    return mask_coherent((1 << len(rows)) - 1, bitplanes(rows))


Bitplanes = tuple[tuple[int, int, int], ...]


def bitplanes(tuples: Sequence[TriTuple]) -> Bitplanes:
    """Per-coordinate (undefined, true, false) bitmasks over tuple
    positions: bit p of a coordinate's masks says what tuple p holds
    there.  A subset of the tuples is then one integer mask."""
    k = _shared_arity(tuples)
    if k is None:
        return ()
    planes = [[0, 0, 0] for _ in range(k)]
    for p, t in enumerate(tuples):
        bit = 1 << p
        for plane, v in zip(planes, t.entries):
            plane[v] |= bit
    return tuple(tuple(plane) for plane in planes)


def mask_coherent(mask: int, planes: Bitplanes) -> bool:
    """Coherence of the tuples selected by `mask`: no coordinate where
    none is undefined but both defined values occur."""
    for bot, tt, ff in planes:
        if not mask & bot and mask & tt and mask & ff:
            return False
    return True


def is_bot_covering(tuples: Iterable[TriTuple]) -> bool:
    """Every coordinate is undefined in some tuple; empty set -> False
    (no tuple can witness any coordinate)."""
    rows = list(tuples)
    k = _shared_arity(rows)
    if k is None:
        return False
    return all(any(r.entries[c] == BOT for r in rows) for c in range(k))


def is_egli_milner_lowerbound(lower: Iterable[TriTuple], upper: Iterable[TriTuple]) -> bool:
    """Two-sided powerdomain order: everything in `upper` dominates some
    element of `lower`, and everything in `lower` is dominated by some
    element of `upper`."""
    bs = list(lower)
    as_ = list(upper)
    _shared_arity(bs + as_)
    return all(any(leq(y, x) for y in bs) for x in as_) and all(
        any(leq(y, x) for x in as_) for y in bs
    )


def all_tuples(arity: int) -> Iterator[TriTuple]:
    """All 3^k tuples of the given arity, in base-3 code order."""
    if arity < 1:
        raise ArityMismatchError("arity must be >= 1")
    for code in range(3**arity):
        yield TriTuple.decode(code, arity)

