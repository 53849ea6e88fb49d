#!/usr/bin/env python3
"""Paired benchmark runs of two commits, written to BENCH_<short-sha>.json.

    python scripts/bench_pairs.py PARENT_REV CHANGE_REV [--pairs 10]

Both commits are exported with `git archive`, each into its own
temporary directory, so only committed files run, and a commit can be
paired with itself to measure the noise floor (an A/A run).  For each
seed 1..N and each workload of the change's BENCHMARK.json, one fresh
`perfbench/run.py` process runs the parent and one runs the change, the
parent first on odd seeds and the change first on even ones.  The
change's `perfbench/compare.py` gives each end-to-end metric its
verdict.  The output, in the repository root, is named after CHANGE_REV
and holds the machine facts (Python, numpy, nproc), every run's metrics
and grades, the medians with quartiles, and the verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, tree: Path) -> str:
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                         capture_output=True, text=True, check=True).stdout.strip()
    tree.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return sha


def run(tree: Path, workload: str, seed: int) -> dict:
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed)], cwd=tree, check=True, capture_output=True)
    saved = json.loads((tree / "perfbench" / "results" / f"{workload}-s{seed}-t0.json").read_text())
    detail = saved["detail"]
    return {
        "metrics": {k: m["value"] for k, m in saved["result"]["metrics"].items()},
        "grades": detail["grades"],
        "failed": detail["failed"],
        "items": detail["items"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        parent_tree, change_tree = Path(tmp) / "parent", Path(tmp) / "change"
        parent_sha = export(args.parent, parent_tree)
        change_sha = export(args.change, change_tree)
        sys.path.insert(0, str(change_tree / "perfbench"))
        import compare

        spec = json.loads((change_tree / "BENCHMARK.json").read_text())
        runs: dict = {}
        for workload in [w["name"] for w in spec["workloads"]]:
            runs[workload] = {"parent": [], "change": []}
            for seed in range(1, args.pairs + 1):
                sides = [("parent", parent_tree), ("change", change_tree)]
                for side, tree in sides if seed % 2 else sides[::-1]:
                    result = run(tree, workload, seed)
                    runs[workload][side].append({"seed": seed, **result})
                    print(f"{workload} seed {seed} {side}: "
                          f"items_per_s {result['metrics']['items_per_s']:.4g}", flush=True)

    summary: dict = {}
    for workload, sides in runs.items():
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name] for r in sides["parent"]]
            change = [r["metrics"][name] for r in sides["change"]]
            p1, pm, p3 = compare.quartiles(parent)
            c1, cm, c3 = compare.quartiles(change)
            sign = 1.0 if metric["better"] == "higher" else -1.0
            summary[workload][name] = {
                "parent": {"median": pm, "q1": p1, "q3": p3},
                "change": {"median": cm, "q1": c1, "q3": c3},
                "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "pairs": len(parent),
                "verdict": compare.verdict(parent, change, list(zip(parent, change)),
                                           metric["better"], metric["bound"]),
            }
    out = ROOT / f"BENCH_{change_sha}.json"
    out.write_text(json.dumps({
        "parent": parent_sha,
        "change": change_sha,
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
        "command": "perfbench/run.py --workload W --seed S, one fresh process per run; "
                   "parent first on odd seeds, change first on even seeds",
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
