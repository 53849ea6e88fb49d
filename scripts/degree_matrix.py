#!/usr/bin/env python3
"""Pairwise comparison matrix over a selection of named functions.

Prints one row per left operand with a compact verdict cell against
every right operand:  =  equiparallel, <  strictly below, >  strictly
above, #  incomparable, ?  unresolved.

Usage:
    python scripts/degree_matrix.py [--allow-terms] [--names bp,ttdet,...]
"""

from __future__ import annotations

from parlevel import compare
from parlevel.cli import Parser, run_to_stdout
from parlevel.zoo import make

DEFAULT_NAMES = [
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
]

CELL = {
    "equiparallel": "=",
    "left_below_strict": "<",
    "right_below_strict": ">",
    "incomparable": "#",
    "unknown": "?",
}


def main() -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--allow-terms", action="store_true")
    parser.add_argument("--names", help="comma-separated names (zoo grammar)")
    args = parser.parse_args()

    names = args.names.split(",") if args.names else DEFAULT_NAMES
    fns = [make(n) for n in names]
    width = max(len(n) for n in names) + 2

    print(" " * width + "  ".join(f"{n[:9]:>9}" for n in names))
    for left_name, left in zip(names, fns):
        cells = []
        for right in fns:
            verdict = compare(left, right, allow_terms=args.allow_terms)
            cells.append(f"{CELL[verdict.relation]:>9}")
        print(f"{left_name:<{width}}" + "  ".join(cells))
    print("\n=  equiparallel   <  strictly below   >  strictly above   "
          "#  incomparable   ?  unresolved")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_to_stdout(main))
