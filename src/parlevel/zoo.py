"""Named functions and families with their exact traces.

The cyclic families are generated from the parity closed form (row r
puts the undefined value at coordinate r; off-diagonal entries alternate
true/false by the parity of (column - row) modulo the arity); the
plevels suite pins this against hard-coded matrices for the two smallest
instances.
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import FormatError
from .functions import (
    MonotoneFn, TraceEntry, check_nesting, fn_sum, neg, read_number, validate_trace
)
from .lattice import Tri, TriTuple


PARAM_BOUND = 100  # largest parameter a family takes
SUM_BOUND = 4  # most summands a name takes, written with `+` or `sum(`


def _check_param(family: str, i: int) -> None:
    """Refuse a family parameter above PARAM_BOUND before any row is built."""
    if i > PARAM_BOUND:
        raise FormatError(f"{family} parameter {i} above bound {PARAM_BOUND}")


def _mk(arity: int, rows: Iterable[tuple[tuple[int, ...], int]], name: str) -> MonotoneFn:
    entries = [
        TraceEntry(TriTuple(tuple(Tri(v) for v in row)), Tri(out)) for row, out in rows
    ]
    return validate_trace(arity, entries, name)


def bp() -> MonotoneFn:
    return _mk(
        3,
        [((0, 1, 2), 1), ((1, 2, 0), 2), ((2, 0, 1), 2)],
        "bp",
    )


def _cyclic_rows(i: int) -> list[tuple[int, ...]]:
    n = 2 * i + 1
    rows = []
    for r in range(1, n + 1):
        rows.append(
            tuple(
                0 if c == r else (1 if ((c - r) % n) % 2 == 1 else 2)
                for c in range(1, n + 1)
            )
        )
    return rows


def gustave(i: int = 1) -> MonotoneFn:
    if i < 1:
        raise FormatError("gustave_i needs i >= 1")
    _check_param("gustave_i", i)
    rows = [(row, 1) for row in _cyclic_rows(i)]
    return _mk(2 * i + 1, rows, f"gustave_i({i})")


def bivalued_gustave(i: int, j: int) -> MonotoneFn:
    if i < 1 or not 1 <= j <= i:
        raise FormatError(f"bg(i,j) needs 1 <= j <= i, got ({i},{j})")
    _check_param("bg", i)  # j <= i
    rows = [
        (row, 2 if r <= j else 1)
        for r, row in enumerate(_cyclic_rows(i), start=1)
    ]
    return _mk(2 * i + 1, rows, f"bg({i},{j})")


def por(i: int) -> MonotoneFn:
    if i < 2:
        raise FormatError("por_i needs i >= 2")
    _check_param("por_i", i)
    rows = []
    for p in range(i):
        row = [1] * i
        row[p] = 0
        rows.append((tuple(row), 1))
    rows.append(((2,) * i, 2))
    return _mk(i, rows, f"por_i({i})")


def det() -> MonotoneFn:
    return _mk(2, [((1, 0), 1), ((2, 0), 1), ((0, 1), 1), ((0, 2), 1)], "det")


def ttdet() -> MonotoneFn:
    return _mk(2, [((1, 0), 1), ((0, 1), 1)], "ttdet")


def ntdet(n: int) -> MonotoneFn:
    if n < 1:
        raise FormatError("ntdet needs n >= 1")
    _check_param("ntdet", n)
    rows = []
    for p in range(n):
        row = [0] * n
        row[p] = 1
        rows.append((tuple(row), 1))
    return _mk(n, rows, f"ntdet({n})")


def left_strict_and() -> MonotoneFn:
    return _mk(2, [((2, 0), 2), ((1, 1), 1), ((1, 2), 2)], "lsand")


# ---------------------------------------------------------------------------
# Name grammar: atoms plus sum(x,y) / x+y / neg(x)
# ---------------------------------------------------------------------------

_ATOMS = {
    "bp": bp,
    "det": det,
    "ttdet": ttdet,
    "lsand": left_strict_and,
    "gustave": lambda: gustave(1),
}

_PARAM_RE = re.compile(r"^(gustave_i|por_i|ntdet|bg)\(([0-9]+)(?:,([0-9]+))?\)$")


def _split_top(text: str, sep: str, original: str) -> list[str]:
    """Split `text` at each `sep` outside parentheses; unbalanced
    parentheses, or nesting past the bound `make`'s recursion takes,
    are a format error."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
            check_nesting(depth)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise FormatError(f"unbalanced parentheses in {original!r}")
    parts.append("".join(cur))
    return parts


def make(name: str) -> MonotoneFn:
    """Build a function from its textual name, e.g. 'bg(2,1)',
    'por_i(3)', 'sum(bp,ttdet)' (also written 'bp+ttdet'), 'neg(bp)'."""
    text = name.strip().lower().replace(" ", "")
    if not text:
        raise FormatError("empty function name")
    summands = text.count("+") + text.count("sum(") + 1
    if summands > SUM_BOUND:
        raise FormatError(f"{summands} summands above sum bound {SUM_BOUND}")
    plus = _split_top(text, "+", name)
    if len(plus) > 1:
        if any(not p for p in plus):
            raise FormatError(f"bad sum expression {name!r}")
        acc = make(plus[0])
        for part in plus[1:]:
            acc = fn_sum(acc, make(part))
        return acc
    if text.startswith("sum(") and text.endswith(")"):
        inner = _split_top(text[4:-1], ",", name)
        if len(inner) != 2:
            raise FormatError(f"sum takes two arguments: {name!r}")
        return fn_sum(make(inner[0]), make(inner[1]))
    if text.startswith("neg(") and text.endswith(")"):
        # neg(neg(f)) has f's trace: peel every one-operand neg( and
        # build the operand once, keeping the nested name
        inner, count = text[4:-1], 1
        while (inner.startswith("neg(") and inner.endswith(")")
               and len(_split_top(inner, "+", inner)) == 1):
            inner, count = inner[4:-1], count + 1
        fn = make(inner)
        if count % 2:
            fn, count = neg(fn), count - 1
        return fn.renamed("neg(" * count + fn.name + ")" * count) if count else fn
    if text in _ATOMS:
        return _ATOMS[text]()
    m = _PARAM_RE.match(text)
    if m:
        family, p1, p2 = m.group(1), read_number(m.group(2)), m.group(3)
        if family == "bg":
            if p2 is None:
                raise FormatError("bg needs two parameters: bg(i,j)")
            return bivalued_gustave(p1, read_number(p2))
        if p2 is not None:
            raise FormatError(f"{family} takes one parameter")
        if family == "gustave_i":
            return gustave(p1)
        if family == "por_i":
            return por(p1)
        return ntdet(p1)
    raise FormatError(f"unknown function name {name!r}")


def list_names() -> list[str]:
    """Names and parameter ranges, for the command-line listing."""
    return [
        "bp",
        "gustave_i(i), i >= 1   (gustave = gustave_i(1))",
        "bg(i,j), 1 <= j <= i",
        "por_i(i), i >= 2",
        "det",
        "ttdet",
        "ntdet(n), n >= 1",
        "lsand",
        "sum(f,g) or f+g",
        "neg(f)",
    ]


def catalog(max_arity: int | None = None) -> list[MonotoneFn]:
    """A fixed, deterministic selection of named instances."""
    fns = [bp()]
    fns += [gustave(i) for i in range(1, 5)]
    fns += [bivalued_gustave(i, j) for i in range(1, 5) for j in range(1, i + 1)]
    fns += [por(i) for i in range(2, 7)]
    fns += [det(), ttdet()]
    fns += [ntdet(n) for n in range(1, 4)]
    fns.append(left_strict_and())
    if max_arity is not None:
        fns = [f for f in fns if f.arity <= max_arity]
    return fns
