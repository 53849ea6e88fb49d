#!/usr/bin/env python3
"""parlevel benchmark: one closed-loop run of one workload.

    python3 perfbench/run.py --workload matrix --seed 1 --trace 0
    python3 perfbench/run.py --seed 1          # every workload in BENCHMARK.json

One caller sends each item only after the previous one returned; there
are no threads.  Each workload run is a fresh process, so the program's
module caches start cold, as they do for a `parlevel` command.  The
timed phase runs whole rounds of items for at most `run_seconds` of
BENCHMARK.json (but at least one round), or until the seeded input pool
is used up.  `--seconds` overrides `run_seconds`; it is there because
the benchmark's calling convention passes it.  Answers are graded after
the timed phase against references the program did not produce.  The
timing metrics are taken from item latencies calibrated against the
machine's speed while they ran (see CALIBRATION_REF_S below), each item
counted with its median over the run's rounds.

With `--trace 0` the last line of standard output is a JSON object with
every end-to-end metric; with `--trace 1` it holds the per-layer metrics
of a run with spans around each layer's public functions, plus the
tracing overhead against an untraced run of the same seed.  A copy of
the result, with the details the JSON line has no room for, goes to
`perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter, sleep

import inputs
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# setup_s is the median of 1 + SETUP_PROBES set-ups: this process's own,
# before the timed phase, and SETUP_PROBES fresh interpreters that do the
# set-up and nothing else, after it, SETUP_GAP_S apart.  Set-ups a few
# seconds apart vary nearly independently with the load from other
# tenants of the machine; back-to-back ones do not, so the gaps make
# the median steadier.
SETUP_PROBES = 4
SETUP_GAP_S = 1.5
SETUP_PROBE = """
import sys
from time import perf_counter
start = perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].setup()
print(perf_counter() - start)
"""

# The timing metrics are taken from calibrated latencies.  Other tenants
# of a shared machine slow everything down, by up to 2x, for seconds to
# minutes at a time, and a whole run can fall into a slow stretch.  The
# timed phase samples the machine's speed with a fixed loop every
# CALIBRATE_EVERY_S, between items, and scales each item's latency by
# CALIBRATION_REF_S over the median of the samples taken from
# CALIBRATE_NEAR_S before it began to CALIBRATE_NEAR_S after it ended:
# the latency it would have had on a calm stretch of the machine the
# benchmark was built on (a 2-vCPU Xeon VM, Python 3.11.7), where the
# loop took CALIBRATION_REF_S.  One sample can be off by 40 %; the
# median of the ten or so near an item is not.  The loop is the
# benchmark's own and does not change with the program, so a change to
# the program moves the calibrated figures as it moves the raw ones.
CALIBRATE_EVERY_S = 0.2
CALIBRATE_NEAR_S = 1.0
CALIBRATION_REF_S = 0.00075

# percentiles tried for item_tail_s, highest first; the first with at
# least TAIL_BEYOND items beyond it is reported.  The rungs are far
# apart so that no workload's item count at the seed sits near a rung's
# threshold (40 s runs: matrix 46 items, p75; certify 430-700, p90;
# classify 2200-4000, p99; sweep 26280, p99.9), and a slow or fast
# machine does not switch the percentile reported.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 60.0, 50.0)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "decided_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(n: int) -> float:
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100.0) >= TAIL_BEYOND:
            return pct
    return 100.0


def _child(args: list[str], timeout: float) -> str:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child run {args} failed:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def probe_setups(workload: str) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        sleep(SETUP_GAP_S)
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout))
    return samples


def _calibration_loop() -> None:
    total, seen = 0, {}
    for i in range(10_000):
        total += i
        seen[i & 255] = total


def machine_sample() -> float:
    """Least of three timings of a fixed pure-Python loop: how slow the
    machine is at this moment."""
    best = float("inf")
    for _ in range(3):
        begin = perf_counter()
        _calibration_loop()
        best = min(best, perf_counter() - begin)
    return best


def timed_phase(run_item, rounds, seconds: float, tracer):
    """Run whole rounds: at least one, and another only while the mean
    round so far says it will end within `seconds`.  The machine is
    sampled before the first item, after every item that ends
    CALIBRATE_EVERY_S or more after the last sample, and after the last
    item.  Returns item latencies, each item's calibrated latency,
    answers and the elapsed time."""
    latencies: list[float] = []
    spans: list[tuple[float, float]] = []
    answers: list[tuple] = []
    sampled_at = [perf_counter()]
    samples = [machine_sample()]
    start = perf_counter()
    for done, items in enumerate(rounds):
        elapsed = perf_counter() - start
        if done and elapsed + elapsed / done > seconds:
            break
        for item in items:
            if tracer is not None:
                tracer.item = len(latencies)
            begin = perf_counter()
            try:
                answer, error = run_item(item), None
            except Exception as exc:  # counted in failed_frac, run continues
                answer, error = None, f"{type(exc).__name__}: {exc}"
            end = perf_counter()
            latencies.append(end - begin)
            spans.append((begin, end))
            answers.append((item, answer, error))
            if end - sampled_at[-1] >= CALIBRATE_EVERY_S:
                sampled_at.append(end)
                samples.append(machine_sample())
    elapsed = perf_counter() - start
    sampled_at.append(perf_counter())
    samples.append(machine_sample())
    calibrated = []
    for latency, (begin, end) in zip(latencies, spans):
        near = samples[bisect_left(sampled_at, begin - CALIBRATE_NEAR_S):
                       bisect_right(sampled_at, end + CALIBRATE_NEAR_S)]
        calibrated.append(latency * CALIBRATION_REF_S / statistics.median(near))
    return latencies, calibrated, answers, elapsed


def item_medians(key, answers, latencies: list[float]) -> list[float]:
    """Each item's latency replaced by the median latency of the same
    item (by `key`) over the run's rounds, so that a slow spell the
    calibration misses moves an item's figure only if it catches the
    item in most rounds."""
    keys = [key(item) for item, _, _ in answers]
    pooled: dict = {}
    for k, latency in zip(keys, latencies):
        pooled.setdefault(k, []).append(latency)
    median = {k: statistics.median(v) for k, v in pooled.items()}
    return [median[k] for k in keys]


def grade(check, answers) -> tuple[dict[str, int], list[str]]:
    """Grade every answer; an item that raised is a failure, whatever
    it raised (a SoundnessError included)."""
    grades = {"right": 0, "wrong": 0, "undecided": 0}
    failures = []
    for item, answer, error in answers:
        if error is not None:
            failures.append(error)
        else:
            grades[check(item, answer)] += 1
    return grades, failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    specs = inputs.generate(name, seed)
    tracer = None
    start = perf_counter()
    import workloads

    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup()
    setups = [perf_counter() - start]
    rounds = workload.bind(specs, ctx)

    untraced = None
    if trace:
        args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", "0"]
        untraced = json.loads(_child(args, timeout=170))
        tracer.start_phase()
    latencies, calibrated, answers, elapsed = timed_phase(
        workload.run_item, rounds, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        tracer.end_phase()
        tracer.uninstall()

    grades, failures = grade(workload.check, answers)
    if not trace:
        setups += probe_setups(name)
    n = len(latencies)
    tail_pct = tail_percentile(n)
    typical = item_medians(workload.key, answers, calibrated)
    items_per_s = n / sum(typical)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "items": n,
        "elapsed_s": elapsed,
        "uncalibrated": {
            "items_per_s": n / elapsed,
            "item_p50_s": statistics.median(latencies),
            "item_tail_s": percentile(latencies, tail_pct),
        },
        "grades": grades,
        "failed": len(failures),
        "failures": failures[:20],
        "wrong_frac": grades["wrong"] / n,
        "failed_frac": len(failures) / n,
        "tail_percentile": tail_pct,
        "tail_items_beyond": n * (1 - tail_pct / 100.0),
        "setup_samples_s": setups,
    }
    if trace:
        overhead = 1.0 - items_per_s / untraced["metrics"]["items_per_s"]["value"]
        layers = tracing.layer_metrics(tracer, overhead)
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{name}-s{seed}-spans.jsonl")
    else:
        values = {
            "items_per_s": items_per_s,
            "item_p50_s": statistics.median(typical),
            "item_tail_s": percentile(typical, tail_pct),
            "decided_frac": (grades["right"] + grades["wrong"]) / n,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {
        "correct": grades["wrong"] == 0,
        "attempted": n,
        "failed": len(failures),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{name}-s{seed}-t{int(trace)}.json", "w") as out:
        json.dump({"result": result, "detail": detail}, out, indent=1)
    return {"result": result, "detail": detail}


def _benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def print_run(run: dict) -> None:
    d, metrics = run["detail"], run["result"]["metrics"]
    print(f"{d['workload']} seed={d['seed']} trace={d['trace']}: {d['items']} items "
          f"in {d['elapsed_s']:.2f} s, {d['grades']}, failed={d['failed']}")
    for key, m in metrics.items():
        note = ""
        if key == "item_tail_s":
            note = (f"  (p{d['tail_percentile']:g}, {d['tail_items_beyond']:.1f} "
                    f"of {d['items']} items beyond)")
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}{note}")
    if not d["trace"]:
        print(f"  {'wrong_frac':<40} {d['wrong_frac']:>14.6g} ratio")
        print(f"  {'failed_frac':<40} {d['failed_frac']:>14.6g} ratio")
    for failure in d["failures"]:
        print(f"  failure: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "parlevel" / "__init__.py").is_file():
        print(f"error: no parlevel sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.workload == "all":
        for name in [w["name"] for w in _benchmark_spec()["workloads"]]:
            child = ["--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            _child(child, timeout=180)
            saved = RESULTS / f"{name}-s{args.seed}-t{args.trace}.json"
            print_run(json.loads(saved.read_text()))
        return 0
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
