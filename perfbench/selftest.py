#!/usr/bin/env python3
"""Self-tests of the benchmark's generators, references and checkers.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Covers: the same seed gives byte-identical inputs; parse_trace accepts
every generated trace and the trace generators produce the modes they
promise; and tampering with a stored verdict, a witness trit, a mapping
or a term result makes the grading report wrong answers, while an item
that raises counts as failed; every certify pass runs the same items,
and an item's latency is its median over the rounds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import parlevel as pl  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _answers(name: str, items: list) -> list:
    w = workloads.WORKLOADS[name]
    return [(item, w.run_item(item), None) for item in items]


def _fracs(name: str, answers: list) -> tuple[float, float]:
    grades, failures = run.grade(workloads.WORKLOADS[name].check, answers)
    return grades["wrong"] / len(answers), len(failures) / len(answers)


def _matrix_items(cells) -> list:
    fns = workloads.WORKLOADS["matrix"].setup()
    return workloads.WORKLOADS["matrix"].bind({"rounds": [cells]}, fns)[0]


def test_same_seed_same_inputs():
    for name in inputs.WORKLOADS:
        first = json.dumps(inputs.generate(name, 7))
        assert first == json.dumps(inputs.generate(name, 7)), name
        assert first != json.dumps(inputs.generate(name, 8)), name


def test_generated_traces_parse_and_scan_as_designed():
    for seed in (1, 2):
        for block in inputs.generate("classify", seed)["blocks"]:
            heavy = 0
            for text in block:
                fn = pl.parse_trace(text)
                assert 5 <= fn.arity <= 8 and fn.trace_size <= 20
                sizes = reference.coherence_sizes(text)
                if fn.trace_size == inputs.HEAVY_ENTRIES and sizes == ("inf", "inf"):
                    heavy += 1
                else:
                    assert sizes[0] in (2, 3) and sizes[1] == 3, text
            assert heavy == 1


def test_matrix_draw_is_stratified():
    (cells,) = inputs.generate("matrix", 3)["rounds"]
    cells = [tuple(c) for c in cells]
    assert set(inputs.MATRIX_REACH_CELLS) <= set(cells)
    ranks = sorted(inputs.MATRIX_COST_ORDER.index(c) for c in cells
                   if c not in inputs.MATRIX_REACH_CELLS)
    strata = [(start + (r - start) // stratum * stratum)
              for r in ranks
              for start, end, stratum in inputs.MATRIX_BANDS if start <= r < end]
    assert strata == [i for start, end, stratum in inputs.MATRIX_BANDS
                      for i in range(start, end, stratum)]
    assert set(reference.MATRIX_TRUTH) >= set(cells)


def test_sweep_setup_matches_generated_order():
    ctx = workloads.WORKLOADS["sweep"].setup()
    assert len(ctx["fns"]) == inputs.SWEEP_FUNCTIONS
    assert len(set(ctx["rels"])) == inputs.SWEEP_RELATIONS


def test_flipped_verdict_is_wrong():
    items = _matrix_items([["bg(1,1)", "ttdet"], ["lsand", "por_i(2)"]])
    answers = _answers("matrix", items)
    assert _fracs("matrix", answers) == (0.0, 0.0)
    key = ("bg(1,1)", "ttdet")
    saved = reference.MATRIX_TRUTH[key]
    reference.MATRIX_TRUTH[key] = "equiparallel"
    try:
        assert _fracs("matrix", answers)[0] > 0
    finally:
        reference.MATRIX_TRUTH[key] = saved


def test_flipped_witness_trit_is_wrong():
    items = _matrix_items([["bg(1,1)", "ttdet"]])
    answers = _answers("matrix", items)
    verdict = answers[0][1]
    sep = next(c for c in verdict.evidence if c.kind == "separation")
    out = sep.payload["witness_output"]
    flip = {"_": "T", "T": "F", "F": "_"}
    sep.payload["witness_output"] = flip[out[0]] + out[1:]
    assert _fracs("matrix", answers)[0] > 0


def test_term_chain_certificate_is_replayed():
    (item,) = _matrix_items([["por_i(3)", "por_i(2)"]])
    verdict = pl.compare(item[2], item[3], allow_terms=True)
    assert "term_chain" in [c.kind for c in verdict.evidence]
    answers = [(item, verdict, None)]
    assert _fracs("matrix", answers) == (0.0, 0.0)
    assert workloads.WORKLOADS["matrix"].check(item, verdict) == workloads.RIGHT
    chain = next(c for c in verdict.evidence if c.kind == "term_chain")
    # a term that gives another function than the source's closed form
    chain.payload["term"] = chain.payload["term"].replace("(g x1 x2)", "(g x1 x3)")
    assert _fracs("matrix", answers)[0] > 0


def test_tampered_mapping_and_term_are_wrong():
    w = workloads.WORKLOADS["certify"]
    specs = {"passes": [[["map", "gustave_i(3)", "gustave_i(1)", False],
                         ["por", 2, 4]]]}
    items = w.bind(specs, w.setup())[0]
    answers = _answers("certify", items)
    assert _fracs("certify", answers) == (0.0, 0.0)
    (map_item, (mapping, checked), _), (term_item, produced, _) = answers
    collapsed = dataclasses.replace(mapping, assignment=(0,) * len(mapping.assignment))
    assert _fracs("certify", [(map_item, (collapsed, checked), None)]) == (1.0, 0.0)
    assert _fracs("certify", [(term_item, pl.neg(produced), None)]) == (1.0, 0.0)


def test_certify_passes_run_the_same_items():
    w = workloads.WORKLOADS["certify"]
    passes = w.bind(inputs.generate("certify", 3), w.setup())
    keys = [sorted(repr(w.key(item)) for item in items) for items in passes]
    assert len(set(keys[0])) == len(keys[0])
    assert all(k == keys[0] for k in keys)


def test_item_latency_is_its_median_over_rounds():
    answers = [(item, None, None) for item in ("a", "b", "a", "a")]
    typical = run.item_medians(lambda item: item, answers, [3.0, 1.0, 2.0, 9.0])
    assert typical == [3.0, 1.0, 3.0, 3.0]


def test_raising_item_is_failed():
    def unsound(item):
        raise pl.SoundnessError("both directions certified")

    _, _, answers, _ = run.timed_phase(unsound, [["x", "y"]], 0.0, None)
    assert _fracs("matrix", answers) == (0.0, 1.0)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, test in tests:
        test()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
