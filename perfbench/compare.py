#!/usr/bin/env python3
"""Summarize one result set, or compare two, metric by metric.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

A result set is a directory of `<workload>-s<seed>-t0.json` files, as
`run.py` writes them to `perfbench/results/`.  Runs of the two sets are
paired by seed.  Each (metric, workload) row gets one verdict against
the metric's bound in BENCHMARK.json:

* better     -- the change wins at least 9 in 10 pairs (ties count for
                neither) and the medians differ by more than the
                parent's own quartile spread;
* unresolved -- the parent's quartile spread, as a share of its median,
                is wider than the bound, and not every change run beats
                every parent run;
* worse      -- the change's median is worse than the parent's by more
                than the bound;
* same       -- otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    """workload -> seed -> saved run"""
    runs: dict = defaultdict(dict)
    for path in sorted(Path(directory).glob("*-t0.json")):
        saved = json.loads(path.read_text())
        runs[saved["detail"]["workload"]][saved["detail"]["seed"]] = saved
    if not runs:
        raise SystemExit(f"no untraced results in {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    cmed = quartiles(change)[1]
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cmed - pmed) > p3 - p1:
        return "better"
    if pmed and (p3 - p1) / abs(pmed) > bound:
        if min(sign * c for c in change) <= max(sign * p for p in parent):
            return "unresolved"
    if sign * (pmed - cmed) > bound * abs(pmed):
        return "worse"
    return "same"


def _value(saved: dict, metric: str) -> float:
    return saved["result"]["metrics"][metric]["value"]


def summarize(runs: dict) -> None:
    spec = json.loads(BENCHMARK.read_text())
    print(f"{'metric':<14} {'workload':<9} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'bound':>6}")
    for metric in spec["end_to_end"]:
        for workload, by_seed in runs.items():
            values = [_value(s, metric["name"]) for s in by_seed.values()]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{metric['name']:<14} {workload:<9} {len(values):>3} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {spread:>7.3f} {metric['bound']:>6}")
    for workload, by_seed in runs.items():
        wrong = sum(s["detail"]["grades"]["wrong"] for s in by_seed.values())
        failed = sum(s["detail"]["failed"] for s in by_seed.values())
        print(f"{workload}: {len(by_seed)} runs, {wrong} wrong, {failed} failed")


def compare(parent: dict, change: dict) -> None:
    spec = json.loads(BENCHMARK.read_text())
    print(f"{'metric':<14} {'workload':<9} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'wins':>6}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in parent:
            if workload not in change:
                continue
            pv = {seed: _value(s, name) for seed, s in parent[workload].items()}
            cv = {seed: _value(s, name) for seed, s in change[workload].items()}
            pairs = [(pv[s], cv[s]) for s in pv if s in cv]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in pairs)
            result = verdict(list(pv.values()), list(cv.values()), pairs,
                             metric["better"], metric["bound"])
            p1, pm, p3 = quartiles(list(pv.values()))
            c1, cm, c3 = quartiles(list(cv.values()))
            print(f"{name:<14} {workload:<9} {pm:>12.6g} [{p1:>9.4g}, {p3:>9.4g}] "
                  f"{cm:>12.6g} [{c1:>9.4g}, {c3:>9.4g}] {wins:>3}/{len(pairs):<2}  {result}")
    for workload in parent:
        for label, side in (("parent", parent), ("change", change)):
            runs = side.get(workload, {}).values()
            wrong = sum(s["detail"]["grades"]["wrong"] for s in runs)
            failed = sum(s["detail"]["failed"] for s in runs)
            if wrong or failed:
                print(f"{workload} {label}: {wrong} wrong, {failed} failed answers")


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        summarize(load(argv[0]))
    elif len(argv) == 2:
        compare(load(argv[0]), load(argv[1]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
