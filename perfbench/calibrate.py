#!/usr/bin/env python3
"""Check two layer rates against the ROADMAP baseline.

    python3 perfbench/calibrate.py

ROADMAP gives, for Python 3.11.7 and numpy 2.4.6 on 2 cores:

* brute invariance at about 5M states/s (gustave_i(1) x chain_relation(5):
  4.33M states in 0.79 s);
* 4.2 s to classify a 20-entry all-total arity-5 trace, where cc = inf
  forces a full 2^20 subset scan, twice.

Each is timed REPEATS times in this process (caches warm after the
first) and the median is printed as JSON, with whether it falls within
TOLERANCE of the ROADMAP figure.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402
import parlevel as pl  # noqa: E402
from parlevel import zoo  # noqa: E402
from parlevel.relations import member_matrix  # noqa: E402

REPEATS = 3
TOLERANCE = 0.25  # share of the ROADMAP figure
ROADMAP_STATES_PER_S = 4.33e6 / 0.79
ROADMAP_CLASSIFY_S = 4.2


def _median_time(call) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times)


def all_total_trace(arity: int = 5, size: int = 20) -> str:
    """The first `size` fully defined inputs, outputs alternating; any
    two differ on a defined column, so no subset is coherent."""
    rows = ["".join(t) for t in itertools.product("TF", repeat=arity)][:size]
    lines = [f"{row} -> {'TF'[i % 2]}" for i, row in enumerate(rows)]
    return f"arity {arity}\n" + "\n".join(lines) + "\n"


def main() -> int:
    fn, rel = zoo.gustave(1), pl.chain_relation(5)
    states = len(member_matrix(rel)) ** fn.arity
    inv_s = _median_time(lambda: pl.invariance_counterexample(fn, rel))
    text = all_total_trace()
    report = pl.classify(pl.parse_trace(text))
    if (report.cc, report.bcc) != (pl.INF, pl.INF):
        raise SystemExit(f"calibration trace is not sequential: {report}")
    cls_s = _median_time(lambda: pl.classify(pl.parse_trace(text)))

    def agrees(measured: float, roadmap: float) -> bool:
        return abs(measured - roadmap) <= TOLERANCE * roadmap

    rate = states / inv_s
    print(json.dumps({
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
        "invariance_states_per_s": {
            "probe": "gustave_i(1) x chain_relation(5)",
            "states": states,
            "median_s": inv_s,
            "measured": rate,
            "roadmap": ROADMAP_STATES_PER_S,
            "agrees": agrees(rate, ROADMAP_STATES_PER_S),
        },
        "classify_20_entry_s": {
            "probe": "20-entry all-total arity-5 trace",
            "measured": cls_s,
            "roadmap": ROADMAP_CLASSIFY_S,
            "agrees": agrees(cls_s, ROADMAP_CLASSIFY_S),
        },
        "tolerance": TOLERANCE,
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
