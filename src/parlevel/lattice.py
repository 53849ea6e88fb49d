"""The flat three-valued boolean domain and tuples over it.

Values are ordered bottom-below-everything; the two defined values are
incomparable.  Tuples carry the pointwise order.  Tuples are encoded as
base-3 integers (one trit per coordinate, first coordinate most
significant) so that enumeration order, set membership and vectorized
lookups are cheap; the encoding never leaks into file formats.

Coherence has one rule here, `mask_coherent` over `bitplanes`, and its
vector form `masks_coherent`.  A `functions.MonotoneFn` keeps its
trace's bitplanes and coherent subsets, so the level, stability and
mapping code read them off the function instead of rebuilding them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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
    return all(a == BOT or a == b for a, b in zip(x.entries, y.entries))


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
    if not tuples:
        return ()
    planes = [[0, 0, 0] for _ in range(tuples[0].arity)]
    for p, t in enumerate(tuples):
        _require_same_arity(tuples[0], t)
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


def masks_coherent(masks: np.ndarray, planes: Bitplanes) -> np.ndarray:
    """`mask_coherent` over an int array of masks, one bool per mask; a
    coordinate that holds only one defined value has nothing to test."""
    ok = np.ones(masks.shape, dtype=bool)
    for bot, tt, ff in planes:
        if tt and ff:
            ok &= ((masks & bot) != 0) | ((masks & tt) == 0) | ((masks & ff) == 0)
    return ok
