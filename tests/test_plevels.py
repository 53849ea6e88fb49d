"""Coefficients, levels, the invariance prediction, classification, the
exhaustive enumeration oracle, and, on random traces, the coherent-subset
listing and scan against the scalar rule and a plain combinations
oracle and the constructed witnesses by replay."""

from __future__ import annotations

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parlevel import (
    BoundExceededError,
    BOT,
    FF,
    INF,
    TT,
    PLevel,
    PreseqRel,
    TraceEntry,
    TriTuple,
    bcc,
    canonical_equal,
    canonical_strict,
    cc,
    classify,
    entry,
    enumerate_monotone,
    fn_sum,
    is_coherent,
    is_m_sequential,
    leq,
    level_separator,
    neg,
    p_level,
    p_level_of_sum,
    predict_invariant,
    table_of,
    trace_from_table,
    validate_trace,
    zoo,
)
from parlevel.functions import monotone_tables
from parlevel.lattice import mask_coherent
from parlevel.plevels import min_coherent_subset
from parlevel.relations import constructed_witness
from test_lattice import oracle_compatible

# brute-filter golden values: monotone total functions at arity 1 and 2
MONOTONE_COUNT = {1: 11, 2: 197}
# the arity-3 count, as also found by pairing disjoint upper sets
ARITY3_COUNT = 129_615


def test_plevel_validation():
    with pytest.raises(ValueError):
        PLevel(1, 1)  # first coordinate below 2
    with pytest.raises(ValueError):
        PLevel(2, 0)  # second below 1
    with pytest.raises(ValueError):
        PLevel(2, 3)  # first below second


def test_cc_examples():
    for i in (1, 2, 3):
        assert cc(zoo.gustave(i)) == 2 * i + 1
    assert cc(zoo.ttdet()) == 2
    assert cc(zoo.left_strict_and()) == INF


def test_bcc_examples():
    for i in (2, 3, 4, 5):
        assert bcc(zoo.por(i)) == i + 1
    assert bcc(zoo.gustave(2)) == INF
    assert bcc(zoo.bp()) == 3


def test_bcc_at_least_cc_on_zoo():
    for fn in zoo.catalog():
        assert bcc(fn) >= cc(fn), fn.name


def test_p_level_golden():
    assert p_level(zoo.bp()) == PLevel(2, 2)
    for i in (1, 2, 3):
        assert p_level(zoo.gustave(i)) == PLevel(INF, 2 * i)
    for i in (2, 3, 4):
        assert p_level(zoo.por(i)) == PLevel(i, 1)


def test_coherence_bound_error():
    assert cc(zoo.ntdet(20)) == 2  # the bound itself is accepted
    # the first 20 total tuples of arity 5: no two are coherent
    rows = ["".join(t) for t in itertools.product("TF", repeat=5)][:20]
    total = validate_trace(5, [entry(r, "T") for r in rows])
    assert cc(total) == bcc(total) == INF
    # entry p undefined at coordinate p only: every subset is coherent
    every = validate_trace(
        20, [entry("T" * p + "_" + "T" * (19 - p), "T") for p in range(20)]
    )
    assert min_coherent_subset(every, bivalued=False) == (
        TriTuple.from_text("_" + "T" * 19),
        TriTuple.from_text("T_" + "T" * 18),
    )
    assert cc(every) == 2 and bcc(every) == INF
    with pytest.raises(BoundExceededError, match="coherence bound 20"):
        cc(zoo.ntdet(21))


def test_predict_invariant_examples():
    bp_level = PLevel(2, 2)
    assert predict_invariant(bp_level, PreseqRel(3, frozenset({1, 2}), frozenset({1, 2, 3})))
    assert not predict_invariant(
        bp_level, PreseqRel(4, frozenset({1, 2, 3}), frozenset({1, 2, 3, 4}))
    )
    assert predict_invariant(bp_level, PreseqRel(2, frozenset(), frozenset()))


def test_p_level_of_sum_examples():
    assert p_level_of_sum(PLevel(2, 2), PLevel(INF, 1)) == PLevel(2, 1)
    assert p_level_of_sum(PLevel(3, 1), PLevel(3, 1)) == PLevel(3, 1)
    assert p_level_of_sum(PLevel(INF, 2), PLevel(INF, 4)) == PLevel(INF, 2)


def test_sum_law_on_functions():
    pairs = [
        (zoo.bp(), zoo.ttdet()),
        (zoo.gustave(1), zoo.gustave(2)),
        (zoo.por(2), zoo.bp()),
    ]
    for f, g in pairs:
        assert p_level(fn_sum(f, g)) == p_level_of_sum(p_level(f), p_level(g))


def test_neg_preserves_level():
    for fn in zoo.catalog(max_arity=5):
        assert p_level(neg(fn)) == p_level(fn)


def test_inexpressible_examples():
    """`level_separator` names the canonical relation the levels say
    separates left from right, the equal-index family first, or None."""
    g1, g2 = zoo.gustave(1), zoo.gustave(2)
    bg21, bg11 = zoo.bivalued_gustave(2, 1), zoo.bivalued_gustave(1, 1)

    def separator(f, g):
        return level_separator(p_level(f), p_level(g))

    # levels (inf, 2) vs (inf, 4): the smaller-index function is the
    # stronger one, so it is not definable from the weaker right operand
    assert separator(g1, g2) == canonical_strict(3)
    assert separator(g2, g1) is None
    assert separator(zoo.bp(), zoo.bp()) is None
    # (4, 4) vs (2, 2): both coordinates larger on the left
    assert separator(bg21, bg11) is None
    assert separator(bg11, bg21) == canonical_equal(3)
    # incomparable levels (inf, 2) vs (4, 4): both directions blocked
    assert separator(g1, bg21) == canonical_strict(3)
    assert separator(bg21, g1) == canonical_equal(5)


def test_inexpressible_agrees_with_verified_separations():
    # every level separator must be the relation the separator search
    # returns, with a counterexample witness that replays against the
    # blocked function
    from parlevel import find_separating_relation

    fns = [zoo.bp(), zoo.gustave(1), zoo.gustave(2), zoo.bivalued_gustave(2, 1),
           zoo.por(2), zoo.por(3), zoo.ttdet(), zoo.left_strict_and()]
    for f in fns:
        for g in fns:
            rel = level_separator(p_level(f), p_level(g))
            if rel is not None:
                sep = find_separating_relation(f, g).found
                assert sep is not None and sep.relation == rel, (f.name, g.name)
                assert sep.witness.verify(f)


def test_classify_examples():
    bp = classify(zoo.bp())
    assert bp.degree_alias == "BP"
    assert bp.classes == ("stable", "bivalued")

    td = classify(zoo.ttdet())
    assert {"unstable", "monovalued", "subsequential"} <= set(td.classes)
    assert td.degree_alias == "DET"

    p2 = classify(zoo.por(2))
    assert {"unstable", "stable_dominating", "bivalued"} <= set(p2.classes)
    assert p2.degree_alias == "none"

    seq = classify(zoo.left_strict_and())
    assert {"sequential", "stable", "subsequential"} <= set(seq.classes)


def test_report_json_field_order():
    d = classify(zoo.bp()).to_json_dict()
    assert list(d.keys()) == [
        "name",
        "arity",
        "trace_size",
        "cc",
        "bcc",
        "plevel",
        "classes",
        "degree_alias",
    ]
    text = json.dumps(d)
    assert text.index('"cc"') < text.index('"bcc"')
    seq = classify(zoo.left_strict_and()).to_json_dict()
    assert (seq["cc"], seq["bcc"], seq["plevel"]) == ("inf", "inf", ["inf", "inf"])


def oracle_first_violation(k: int, vals) -> tuple[int, int] | None:
    """Scalar monotonicity scan over the covering pairs (raise one
    undefined coordinate to a defined value): the first pair of codes
    whose values differ, by lower code, then coordinate, then raised
    value; None when the table is monotone."""
    pow3 = [3 ** (k - 1 - c) for c in range(k)]
    for code, v in enumerate(vals):
        if v == 0:
            continue
        for c in range(k):
            if (code // pow3[c]) % 3 == 0:
                for up in (1, 2):
                    hi = code + up * pow3[c]
                    if vals[hi] != v:
                        return (code, hi)
    return None


def test_enumeration_counts_and_validity():
    for arity, count in MONOTONE_COUNT.items():
        seen = set()
        n = 0
        for fn in enumerate_monotone(arity):
            n += 1
            key = (fn.arity, fn.entries)
            assert key not in seen
            seen.add(key)
            # table round trip on every yielded function
            assert trace_from_table(arity, list(table_of(fn))) == fn
        assert n == count
        # the same functions, in order, as the scalar scan filters them
        expected = [
            trace_from_table(arity, vals)
            for vals in itertools.product((0, 1, 2), repeat=3**arity)
            if oracle_first_violation(arity, vals) is None
        ]
        assert list(enumerate_monotone(arity)) == expected
    # arity 3: too many for the scalar scan, and for a trace each
    tables = monotone_tables(3)
    assert tables.shape == (ARITY3_COUNT, 27)
    codes = tables.astype(np.int64) @ 3 ** np.arange(26, -1, -1)
    assert (np.diff(codes) > 0).all()  # strictly increasing, so distinct
    # every row monotone: each cell against the cell with one defined
    # coordinate lowered to undefined
    for c in range(3):
        place = 3 ** (2 - c)
        raised = [x for x in range(27) if x // place % 3]
        lowered = [x - x // place % 3 * place for x in raised]
        low, high = tables[:, lowered], tables[:, raised]
        assert ((low == 0) | (low == high)).all()
    for i in random.Random(20261020).sample(range(ARITY3_COUNT), 200):
        assert (table_of(trace_from_table(3, tables[i])) == tables[i]).all()


def test_enumeration_bound():
    with pytest.raises(BoundExceededError):
        list(enumerate_monotone(4))


def test_bcc_at_least_cc_on_enumeration():
    for fn in enumerate_monotone(2):
        assert bcc(fn) >= cc(fn)


def test_classify_sequential_matches_recursive_test():
    for arity in (1, 2):
        for fn in enumerate_monotone(arity):
            assert ("sequential" in classify(fn).classes) == is_m_sequential(fn)
    for fn in zoo.catalog(max_arity=6):
        assert is_m_sequential(fn) == (cc(fn) == INF), fn.name
    for arity in (3, 4):
        for fn in sampled_monotone(arity, count=300, seed=20261018 + arity):
            assert is_m_sequential(fn) == (cc(fn) == INF), fn
    for table in monotone_tables(3)[::50]:
        fn = trace_from_table(3, table)
        assert ("sequential" in classify(fn).classes) == is_m_sequential(fn), fn


def sampled_monotone(arity: int, count: int, seed: int):
    """Deterministic random monotone functions: greedily grow a trace
    from shuffled candidate entries, keeping it minimal and consistent."""
    from parlevel import ComparableRowsError, InconsistentOutputsError, Tri

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        candidates = [
            (code, out_v)
            for code in range(3**arity)
            for out_v in (Tri.TT, Tri.FF)
        ]
        rng.shuffle(candidates)
        rows = []
        for code, out_v in candidates[: rng.randint(2, 12)]:
            attempt = rows + [entry_from(code, arity, out_v)]
            try:
                fn = validate_trace(arity, attempt)
            except (ComparableRowsError, InconsistentOutputsError):
                continue
            rows = list(fn.entries)
        out.append(validate_trace(arity, rows))
    return out


def entry_from(code: int, arity: int, out_v):
    from parlevel import TraceEntry, TriTuple

    return TraceEntry(TriTuple.decode(code, arity), out_v)


def test_level_criterion_on_sampled_arity3():
    """The exhaustive oracle equivalence holds at arity 2; spot-check the
    same agreement at arity 3 on seeded greedy traces and on a seeded
    sample of the exhaustive list."""
    from parlevel import is_invariant

    relations = [canonical_equal(m) for m in (2, 3, 4)] + [
        canonical_strict(m) for m in (1, 2, 3)
    ]
    tables = monotone_tables(3)
    picks = random.Random(20260811).sample(range(ARITY3_COUNT), 40)
    fns = sampled_monotone(3, count=40, seed=20260810)
    for fn in fns + [trace_from_table(3, tables[i]) for i in picks]:
        level = p_level(fn)
        for rel in relations:
            assert predict_invariant(level, rel) == is_invariant(fn, rel), (
                fn,
                rel,
            )


def test_every_level_starts_at_2_1():
    for fn in enumerate_monotone(2):
        level = p_level(fn)
        assert level.i >= 2 and level.j >= 1


def test_empty_trace_classifies():
    silent = validate_trace(2, [])
    rep = classify(silent)
    assert "sequential" in rep.classes
    assert not {"monovalued", "bivalued"} & set(rep.classes)


# ---------------------------------------------------------------------------
# Coherent-subset scan against a plain oracle on random arity-3/4 traces
# ---------------------------------------------------------------------------

tri = st.sampled_from([BOT, TT, FF])
# one undefined coordinate in five keeps random candidates mostly
# incomparable, so traces often reach 8-12 entries
mostly_defined = st.integers(0, 4).map(lambda n: (BOT, TT, FF, TT, FF)[n])


def tuples_of(values, arity: int):
    return st.lists(values, min_size=arity, max_size=arity).map(
        lambda vs: TriTuple(tuple(vs))
    )


def plainly_coherent(rows) -> bool:
    """Coherence by definition: at every coordinate some row is undefined
    or all rows agree."""
    if not rows:
        return True
    return all(
        any(r.entries[c] == BOT for r in rows) or len({r.entries[c] for r in rows}) == 1
        for c in range(rows[0].arity)
    )


def oracle_min_subset(fn, bivalued: bool):
    for size in range(3 if bivalued else 2, fn.trace_size + 1):
        for combo in itertools.combinations(fn.entries, size):
            if bivalued and len({e.output for e in combo}) != 2:
                continue
            if plainly_coherent([e.input for e in combo]):
                return tuple(e.input for e in combo)
    return None


@st.composite
def random_traces(draw, arities=(3, 4), max_entries=12):
    """Valid traces of the given arities with up to `max_entries` entries:
    candidates are kept while they stay incomparable to every kept input
    and agree in output with every compatible one."""
    k = draw(st.sampled_from(arities))
    candidates = draw(
        st.lists(
            st.tuples(tuples_of(mostly_defined, k), st.sampled_from([TT, FF])),
            min_size=6,
            max_size=40,
        )
    )
    kept: list[TraceEntry] = []
    for x, out in candidates:
        if len(kept) == max_entries:
            break
        if all(
            not leq(x, e.input)
            and not leq(e.input, x)
            and (out == e.output or not oracle_compatible(x, e.input))
            for e in kept
        ):
            kept.append(TraceEntry(x, out))
    return validate_trace(k, kept)


@settings(deadline=None)
@given(random_traces())
def test_min_coherent_subset_equals_combinations_oracle(fn):
    for bivalued in (False, True):
        assert min_coherent_subset(fn, bivalued) == oracle_min_subset(fn, bivalued)
    # the listing holds the scalar rule's subsets, by size, then in
    # combinations order (entry 0 in before out, then entry 1, ...)
    m, listing = fn.trace_size, fn.coherent_subsets
    scalar = [x for x in range(1 << m) if x.bit_count() >= 2 and mask_coherent(x, fn.planes)]
    assert len(listing) == len(scalar) and set(listing) == set(scalar)
    assert listing == sorted(
        listing, key=lambda x: (x.bit_count(), [-(x >> p & 1) for p in range(m)])
    )


@settings(deadline=None)
@given(st.sampled_from([3, 4]).flatmap(lambda k: st.lists(tuples_of(tri, k), max_size=8)))
def test_is_coherent_equals_definition(rows):
    assert is_coherent(rows) == plainly_coherent(rows)


@settings(deadline=None)
@given(random_traces())
def test_constructed_witnesses_replay(fn):
    """The witness built from a minimal coherent (bivalued) subset breaks
    the canonical relation at the coefficient, whenever it is finite."""
    for coefficient, family in ((bcc(fn), canonical_equal), (cc(fn), canonical_strict)):
        if coefficient == INF:
            continue
        witness = constructed_witness(fn, family(coefficient))
        assert witness is not None and witness.verify(fn)
