"""Reference answers, kept apart from the program under test.

* The degree table of the ten functions of `scripts/degree_matrix.py`,
  as the paper states it.  It includes the two `por_i` cells that the
  program leaves `unknown`.
* Coherence coefficients by plain subset enumeration, for `classify`.
"""

from __future__ import annotations

import itertools

import numpy as np

MATRIX_NAMES = (
    "lsand",
    "gustave_i(2)",
    "gustave_i(1)",
    "bg(2,1)",
    "bg(1,1)",
    "ttdet",
    "det",
    "bp+ttdet",
    "por_i(3)",
    "por_i(2)",
)

# Row = left operand, column = right operand.  "<" left strictly below,
# ">" right strictly below, "=" equiparallel, "#" incomparable.
_TRUTH_ROWS = (
    "=<<<<<<<<<",  # lsand
    ">=<<<<<<<<",  # gustave_i(2)
    ">>=#<<<<<<",  # gustave_i(1)
    ">>#=<##<<<",  # bg(2,1)
    ">>>>=##<#<",  # bg(1,1)
    ">>>##==<<<",  # ttdet
    ">>>##==<<<",  # det
    ">>>>>>>=#<",  # bp+ttdet
    ">>>>#>>#=<",  # por_i(3)
    ">>>>>>>>>=",  # por_i(2)
)
_VERDICT = {
    "<": "left_below_strict",
    ">": "right_below_strict",
    "=": "equiparallel",
    "#": "incomparable",
}
MATRIX_TRUTH = {
    (left, right): _VERDICT[ch]
    for left, row in zip(MATRIX_NAMES, _TRUTH_ROWS)
    for right, ch in zip(MATRIX_NAMES, row)
}

# ---------------------------------------------------------------------------
# classify: coherence coefficients by plain subset enumeration
# ---------------------------------------------------------------------------

INF = "inf"


def coherence_sizes(trace_text: str) -> tuple[int | str, int | str]:
    """(cc, bcc) of a trace file: the size of the smallest coherent
    subset of two or more entries, and of the smallest coherent subset
    carrying both outputs; "inf" when there is none.  A subset is
    coherent when every column is undefined in some member or equal in
    all of them."""
    rows = []
    for line in trace_text.splitlines():
        if "->" in line:
            tup, out = (part.strip() for part in line.split("->"))
            rows.append((tup, out))
    m = len(rows)
    k = len(rows[0][0]) if rows else 0
    bot = [0] * k
    tt = [0] * k
    ff = [0] * k
    for idx, (tup, _) in enumerate(rows):
        for c, ch in enumerate(tup):
            plane = bot if ch == "_" else tt if ch == "T" else ff
            plane[c] |= 1 << idx
    out_tt = sum(1 << i for i, (_, o) in enumerate(rows) if o == "T")
    out_ff = ((1 << m) - 1) & ~out_tt

    # Subsets of up to three entries settle most traces; the rest are
    # enumerated in full.
    small = [
        sum(1 << i for i in combo)
        for size in (2, 3)
        for combo in itertools.combinations(range(m), size)
    ]
    for masks in (np.array(small, dtype=np.int64), np.arange(1, 1 << m, dtype=np.int64)):
        coherent = np.ones(len(masks), dtype=bool)
        for c in range(k):
            undefined = (masks & bot[c]) != 0
            split = ((masks & tt[c]) != 0) & ((masks & ff[c]) != 0)
            coherent &= undefined | ~split
        size = np.bitwise_count(masks)
        bivalued = ((masks & out_tt) != 0) & ((masks & out_ff) != 0)
        cc = size[coherent & (size >= 2)]
        bcc = size[coherent & bivalued]
        if len(cc) and len(bcc):
            return int(cc.min()), int(bcc.min())
    return (int(cc.min()) if len(cc) else INF), (int(bcc.min()) if len(bcc) else INF)
