#!/usr/bin/env python3
"""Census of every monotone function at small arity: how the level pairs
and classes are populated, with one example trace per level.

Usage:
    python scripts/plevel_census.py [--arity {1,2,3}]   (default 2)
"""

from __future__ import annotations

from collections import Counter

from parlevel import classify, enumerate_monotone
from parlevel.cli import Parser, flag_number, run_to_stdout


def main() -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--arity", type=flag_number, default=2, choices=(1, 2, 3))
    args = parser.parse_args()

    levels: Counter = Counter()
    classes: Counter = Counter()
    examples = {}
    total = 0
    for fn in enumerate_monotone(args.arity):
        total += 1
        rep = classify(fn)
        key = str(rep.plevel)
        levels[key] += 1
        examples.setdefault(key, fn)
        for c in rep.classes:
            classes[c] += 1

    print(f"monotone functions of arity {args.arity}: {total}")
    width = max(4, len(str(total)))
    print("\nby level:")
    for key in sorted(levels, key=lambda s: (len(s), s)):
        fn = examples[key]
        rows = ", ".join(str(e) for e in fn.entries) or "(empty trace)"
        print(f"  {key:>12}  {levels[key]:{width}d}   e.g. {rows}")
    print("\nby class:")
    for name, count in classes.most_common():
        print(f"  {name:>18}  {count:{width}d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_to_stdout(main))
