"""Acceptance criteria, one test per criterion.

Each test prints a single pass line once its assertions hold; pytest -v
adds the per-criterion pass/fail verdicts.  Criteria 1-7 drive the
`parlevel verify` suites: the golden level table is the plevels suite's,
and the lemmas, hierarchies and terms suites each run once per module,
with the tests asserting their rows and the frozen check counts.  The
expected values were each computed by independent oracles (exhaustive
enumeration, brute-force invariance, full table equality)."""

from __future__ import annotations

import time

import pytest

import parlevel as pl
from parlevel import zoo
from parlevel.suites import (
    GOLDEN_LEVELS,
    SUM_PAIRS,
    suite_hierarchies,
    suite_lemmas,
    suite_terms,
)

CFG = pl.DEFAULT_CONFIG

INF = pl.INF


def done(n: int, text: str) -> None:
    print(f"[criterion {n:02d}] PASS  {text}")


@pytest.fixture(scope="module")
def lemmas():
    rows = suite_lemmas()
    assert len(rows) == 4
    return rows


@pytest.fixture(scope="module")
def hierarchies():
    start = time.time()
    rows = suite_hierarchies()
    assert len(rows) == 27
    return rows, time.time() - start


@pytest.fixture(scope="module")
def terms():
    rows = suite_terms()
    assert len(rows) == 9
    return rows


def passed(rows, name: str):
    """The one row called `name`, asserted to pass."""
    hits = [r for r in rows if r.name == name]
    assert len(hits) == 1, name
    assert hits[0].passed, (name, hits[0].detail)
    return hits[0]


def test_criterion_01_zoo_level_golden_table():
    start = time.time()
    for name, i, j in GOLDEN_LEVELS:
        got = pl.p_level(zoo.make(name))
        assert got == pl.PLevel(i, j), f"{name}: {got} != {pl.PLevel(i, j)}"
    elapsed = time.time() - start
    assert elapsed < 1.0, f"golden table took {elapsed:.2f}s"
    done(1, f"{len(GOLDEN_LEVELS)} golden levels exact in {elapsed * 1000:.0f} ms")


def test_criterion_02_brute_invariance_equals_prediction(lemmas):
    row = passed(
        lemmas, "level criterion == brute-force invariance (all arity<=2 functions)"
    )
    # 11 + 197 monotone functions times 9 canonical relations
    assert row.detail == "1872 checks, 0 mismatches"
    done(2, "1872 prediction/brute-force agreements, exact")


def test_criterion_03_reduction_and_closure_oracles(lemmas):
    row = passed(lemmas, "canonicalization preserves invariance (zoo arity<=3, n<=4)")
    assert row.detail == "1320 checks, 0 mismatches"
    passed(lemmas, "closure implications (zoo arity<=3, m<=3)")
    done(3, "1320 reduction checks and the closure checks, exact")


def test_criterion_04_sequentiality_equivalence(lemmas):
    # frozen brute-filter counts of monotone functions at arity 1 and 2
    assert [sum(1 for _ in pl.enumerate_monotone(k)) for k in (1, 2)] == [11, 197]
    row = passed(lemmas, "sequentiality equivalence (all arity<=2 functions)")
    assert row.detail == "208 functions, 0 mismatches"
    done(4, "recursive test == no-coherent-subset == top level, all arity<=2")


def test_criterion_05_hierarchy_strictness(hierarchies):
    rows, elapsed = hierarchies
    # each separation row also asserts that the level fast path flags the
    # pair and that an invariant side not brute-forced is over budget
    for family in ("gustave_i", "bg"):
        for i in range(1, 5):
            for j in range(i + 1, 5):
                passed(rows, f"{family}: index {i} not definable from index {j}")
    for name in (lambda i: f"gustave_i({i})", lambda i: f"bg({i},1)"):
        for i in range(1, 4):
            for j in range(i, 4):
                passed(rows, f"{name(j)} definable from {name(i)}")
    # the smallest bivalued instance fits the budget
    sep = pl.find_separating_relation(
        zoo.bivalued_gustave(1, 1), zoo.bivalued_gustave(2, 1), CFG
    ).found
    assert sep.invariant_method == "brute"
    assert elapsed < 60.0
    done(5, f"12 separations verified, 12 mappings found (suite ran {elapsed:.1f}s)")


def test_criterion_06_chain_separation(hierarchies):
    rows, elapsed = hierarchies
    assert pl.fn_sum(zoo.bp(), zoo.por(3)).arity == 4
    assert pl.fn_sum(zoo.bp(), zoo.por(2)).arity == 4
    passed(rows, "bp+por_i(3) respects the arity-3 chain relation")
    passed(rows, "bp+por_i(2) breaks the arity-3 chain relation (witness replays)")
    assert elapsed < 300.0
    done(6, f"chain relation separates the two join rungs (suite ran {elapsed:.1f}s)")


def test_criterion_07_term_replays(terms):
    for i in (2, 3, 4):
        passed(terms, f"step term at por_i({i}) yields por_i({i + 1})")
    for i in (1, 2, 3):
        for j in range(2, i + 1):
            passed(terms, f"rotations exchange bg({i},{j - 1}) and bg({i},{j})")
    for i in (1, 2):
        passed(terms, f"detector synthesis rebuilds gustave_i({i})")
    done(7, "step, rotation and detector-synthesis terms replay exactly")


def test_criterion_08_mapping_incompleteness_regression(hierarchies, terms):
    rows, _ = hierarchies
    passed(rows, "no mapping por_i(3) -> por_i(2); comparison stays unknown")
    verdict = pl.compare(zoo.por(3), zoo.por(2), CFG)
    assert verdict.relation == "unknown"
    for cert in verdict.evidence:
        if cert.kind == "separation":
            # the only separation allowed is right-not-below-left
            assert cert.source == zoo.por(2) and cert.target == zoo.por(3)
    # the positive direction is recovered by the term route
    passed(terms, "term route resolves por_i(3) vs por_i(2) as strictly below")
    done(8, "no mapping, no fake negative; comparison honestly unknown")


def test_criterion_09_sum_laws():
    assert len(SUM_PAIRS) == 15
    for left, right in SUM_PAIRS:
        f, g = zoo.make(left), zoo.make(right)
        s = pl.fn_sum(f, g)
        assert pl.p_level(s) == pl.p_level_of_sum(
            pl.p_level(f), pl.p_level(g)
        ), (left, right)
        assert pl.bm_search(f, s, CFG) is not None, (left, right)
        assert pl.bm_search(g, s, CFG) is not None, (left, right)
    done(9, f"level law and both embeddings hold for {len(SUM_PAIRS)} pairs")


def test_criterion_10_equiparallelism_checks():
    assert pl.bm_search(zoo.det(), zoo.ttdet(), CFG) is not None
    assert pl.bm_search(zoo.ttdet(), zoo.det(), CFG) is not None
    assert pl.classify(zoo.bivalued_gustave(1, 1)).degree_alias == "BP"
    detector_level = pl.PLevel(INF, 1)
    for fn in zoo.catalog():
        rep = pl.classify(fn)
        if rep.plevel == detector_level:
            assert rep.degree_alias == "DET", fn.name
    # sums landing on the detector level are aliased too
    rep = pl.classify(zoo.make("gustave+ttdet"))
    assert rep.plevel == detector_level and rep.degree_alias == "DET"
    done(10, "detector degree aliased everywhere it appears; bg(1,1) is BP")
