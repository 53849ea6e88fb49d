"""Trace-mapping checks, mapping search, the cofinal construction, and
the comparison engine; the mapping check and search against a check
written by definition on random traces."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parlevel import (
    FF,
    TT,
    BMMapping,
    BoundExceededError,
    BudgetExceededError,
    DEFAULT_CONFIG,
    InapplicableError,
    bm_search,
    check_bm,
    cofinal_witness,
    compare,
    enumerate_monotone,
    fn_sum,
    inline_oracle,
    mapping_certificate,
    neg,
    parse_relation,
    trace_from_table,
    zoo,
)
from parlevel import definability
from parlevel.functions import monotone_tables
from parlevel.lattice import mask_coherent
from parlevel.relations import InvarianceWitness
from parlevel import TriTuple
from test_plevels import plainly_coherent, random_traces


def identity_mapping(fn):
    return BMMapping(fn, fn, tuple(range(fn.trace_size)))


def test_check_bm_identity():
    for fn in (zoo.bp(), zoo.por(2), zoo.gustave(2)):
        assert check_bm(identity_mapping(fn))


def test_check_bm_gustave_to_ttdet():
    g = zoo.gustave(1)
    td = zoo.ttdet()
    # any assignment hitting both detector rows works
    for assignment in itertools.product(range(2), repeat=3):
        expect = len(set(assignment)) == 2
        assert check_bm(BMMapping(g, td, assignment)) == expect


def test_check_bm_bp_to_ttdet_always_fails():
    bp = zoo.bp()
    td = zoo.ttdet()
    for assignment in itertools.product(range(2), repeat=3):
        assert not check_bm(BMMapping(bp, td, assignment))


def test_check_bm_inspects_non_minimal_subsets():
    # the coherent pair maps fine; only the full (coherent, two-valued)
    # trace of por_i(2) exposes the failure, so checking minimal
    # coherent subsets alone would wrongly accept this mapping
    por = zoo.por(2)
    td = zoo.ttdet()
    assert not check_bm(BMMapping(por, td, (0, 1, 0)))


def test_bm_search_examples():
    assert bm_search(zoo.ttdet(), zoo.por(2)) is not None
    for i in (1, 2, 3):
        m = bm_search(zoo.gustave(i), zoo.bivalued_gustave(i, 1))
        assert m is not None and check_bm(m)
    assert bm_search(zoo.por(3), zoo.por(2)) is None


def test_bm_search_detector_variants_both_ways():
    assert bm_search(zoo.det(), zoo.ttdet()) is not None
    assert bm_search(zoo.ttdet(), zoo.det()) is not None


def test_bm_search_gustave_chain():
    for i, j in [(i, j) for i in (1, 2, 3) for j in (i, 2, 3) if j >= i]:
        m = bm_search(zoo.gustave(j), zoo.gustave(i))
        assert m is not None, (i, j)


# the first mappings found for the hierarchy pairs of the benchmark's
# certify workload, the same for the functions and their negations
CHAIN_ASSIGNMENTS = {
    ("gustave_i(1)", "gustave_i(1)"): (0, 1, 2),
    ("gustave_i(2)", "gustave_i(1)"): (0, 0, 0, 1, 2),
    ("gustave_i(3)", "gustave_i(1)"): (0, 0, 0, 0, 0, 1, 2),
    ("gustave_i(4)", "gustave_i(1)"): (0, 0, 0, 0, 0, 0, 0, 1, 2),
    ("gustave_i(5)", "gustave_i(1)"): (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2),
    ("gustave_i(6)", "gustave_i(1)"): (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2),
    ("gustave_i(7)", "gustave_i(1)"): (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2),
    ("gustave_i(2)", "gustave_i(2)"): (0, 1, 2, 3, 4),
    ("gustave_i(3)", "gustave_i(2)"): (0, 0, 0, 1, 2, 3, 4),
    ("gustave_i(4)", "gustave_i(2)"): (0, 0, 0, 0, 0, 1, 2, 3, 4),
    ("gustave_i(5)", "gustave_i(2)"): (0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4),
    ("gustave_i(3)", "gustave_i(3)"): (0, 1, 2, 3, 4, 5, 6),
    ("gustave_i(4)", "gustave_i(3)"): (0, 0, 0, 1, 2, 3, 4, 5, 6),
    ("bg(1,1)", "bg(1,1)"): (0, 1, 2),
    ("bg(2,1)", "bg(1,1)"): (0, 1, 1, 1, 2),
    ("bg(3,1)", "bg(1,1)"): (0, 1, 1, 1, 1, 1, 2),
    ("bg(4,1)", "bg(1,1)"): (0, 1, 1, 1, 1, 1, 1, 1, 2),
    ("bg(5,1)", "bg(1,1)"): (0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2),
    ("bg(2,1)", "bg(2,1)"): (0, 1, 2, 3, 4),
    ("bg(3,1)", "bg(2,1)"): (0, 1, 1, 1, 2, 3, 4),
    ("bg(4,1)", "bg(2,1)"): (0, 1, 1, 1, 1, 1, 2, 3, 4),
    ("bg(3,1)", "bg(3,1)"): (0, 1, 2, 3, 4, 5, 6),
}


@pytest.mark.parametrize("negate", [False, True], ids=["plain", "negated"])
def test_bm_search_chain_assignments(negate):
    wrap = neg if negate else (lambda fn: fn)
    for (source, target), assignment in CHAIN_ASSIGNMENTS.items():
        m = bm_search(wrap(zoo.make(source)), wrap(zoo.make(target)))
        assert m is not None and m.assignment == assignment, (source, target)


# pairs whose raw space |g|^|f| is above the default budget of 10^8:
# refused before any search, the same for the functions and their negations
OVER_BUDGET = [
    ("gustave_i(6)", "gustave_i(3)"),
    ("gustave_i(6)", "gustave_i(2)"),
    ("bg(4,1)", "bg(4,1)"),
    ("bg(6,1)", "bg(3,1)"),
]


@pytest.mark.parametrize("negate", [False, True], ids=["plain", "negated"])
def test_bm_search_over_budget_pairs(negate):
    wrap = neg if negate else (lambda fn: fn)
    for source, target in OVER_BUDGET:
        with pytest.raises(BudgetExceededError, match="mapping search"):
            bm_search(wrap(zoo.make(source)), wrap(zoo.make(target)), DEFAULT_CONFIG)


# each source's one coherent subset is its whole trace, so only the
# output polarity prunes before the last entry; a search that tries
# every child lists |g|^(m-1) prefixes here (seconds for bg(5,1))
POLARITY_ANSWERS = {
    ("bg(5,1)", "bg(2,1)"): (0, 1, 1, 1, 1, 1, 1, 1, 2, 3, 4),
    ("bg(4,1)", "bg(3,1)"): (0, 1, 1, 1, 2, 3, 4, 5, 6),
    ("bg(3,2)", "bg(3,1)"): None,
}


@pytest.mark.parametrize("negate", [False, True], ids=["plain", "negated"])
def test_bm_search_polarity_answers(negate):
    wrap = neg if negate else (lambda fn: fn)
    start = time.perf_counter()
    for (source, target), assignment in POLARITY_ANSWERS.items():
        m = bm_search(wrap(zoo.make(source)), wrap(zoo.make(target)))
        assert (None if m is None else m.assignment) == assignment, (source, target)
    assert time.perf_counter() - start < 1


def test_bm_search_sum_embeddings():
    pairs = [
        (zoo.bp(), zoo.ttdet()),
        (zoo.gustave(1), zoo.por(2)),
        (zoo.det(), zoo.left_strict_and()),
    ]
    for f, g in pairs:
        s = fn_sum(f, g)
        assert bm_search(f, s) is not None
        assert bm_search(g, s) is not None


def test_bm_search_budget():
    tiny = dataclasses.replace(DEFAULT_CONFIG, budget=3)
    with pytest.raises(BudgetExceededError):
        bm_search(zoo.gustave(1), zoo.bp(), tiny)


def test_mapping_bound_error():
    big = zoo.ntdet(21)
    with pytest.raises(BoundExceededError, match="coherence bound 20"):
        check_bm(identity_mapping(big))
    # the bound is checked before the budget
    with pytest.raises(BoundExceededError, match="coherence bound 20"):
        bm_search(big, big)


def test_bm_search_takes_a_source_up_to_the_coherence_bound():
    """gustave_i(9) has 19 entries, under the coherence bound the
    mapping search shares with the levels, and its 3^19 raw mappings
    into gustave_i(1) fit a budget of 10^10."""
    wide = dataclasses.replace(DEFAULT_CONFIG, budget=10**10)
    source = zoo.gustave(9)
    assert source.trace_size == 19
    mapping = bm_search(source, zoo.gustave(1), wide)
    assert mapping is not None and check_bm(mapping)


def test_cofinal_witness_examples():
    idx, mapping = cofinal_witness(zoo.bivalued_gustave(1, 1))
    assert idx == 3
    assert mapping.source == zoo.gustave(3)
    assert check_bm(mapping)

    idx_bp, mapping_bp = cofinal_witness(zoo.bp())
    assert idx_bp == 3 and check_bm(mapping_bp)

    with pytest.raises(InapplicableError):
        cofinal_witness(zoo.por(2))  # unstable
    with pytest.raises(InapplicableError):
        cofinal_witness(zoo.left_strict_and())  # sequential


def test_compare_golden_verdicts():
    assert compare(zoo.bivalued_gustave(2, 1), zoo.bivalued_gustave(1, 1)).relation == "left_below_strict"
    assert compare(zoo.gustave(1), zoo.bivalued_gustave(1, 1)).relation == "left_below_strict"
    assert compare(zoo.bp(), zoo.bp()).relation == "equiparallel"
    assert compare(zoo.gustave(1), zoo.ttdet()).relation == "left_below_strict"
    assert compare(zoo.det(), zoo.ttdet()).relation == "equiparallel"


def test_compare_never_fakes_negatives_on_mapping_absence():
    verdict = compare(zoo.por(3), zoo.por(2))
    assert verdict.relation == "unknown"
    kinds = {c.kind for c in verdict.evidence}
    assert "separation" in kinds  # right not below left is certified
    for cert in verdict.evidence:
        if cert.kind == "separation":
            assert cert.source == zoo.por(2)


def test_compare_term_route_closes_the_gap():
    verdict = compare(zoo.por(3), zoo.por(2), allow_terms=True)
    assert verdict.relation == "left_below_strict"
    assert any(c.kind == "term_chain" for c in verdict.evidence)


def test_term_route_refuses_a_source_above_the_table_bound(monkeypatch):
    """A chain term has the source's arity, so a source above the table
    bound is refused before any step is inlined; one within it inlines
    each step onto the chain below."""
    calls = []

    def counted(outer, inner):
        calls.append(outer.arity)
        return inline_oracle(outer, inner)

    monkeypatch.setattr(definability, "inline_oracle", counted)
    verdict = compare(zoo.por(8), zoo.por(2), allow_terms=True)
    assert calls == []
    assert verdict.relation == "unknown"
    assert [c.kind for c in verdict.evidence] == ["separation"]
    assert verdict.notes == (
        "preseq n=3 A=1,2,3 B=1,2,3: invariant side skipped (invariance check needs "
        "37822859361 states, budget allows 100000000), justified by level instead",
        "right not below left established; other direction open",
    )
    verdict = compare(zoo.por(5), zoo.por(2), allow_terms=True)
    assert calls == [4, 5]
    assert verdict.relation == "left_below_strict"
    calls.clear()
    bound4 = dataclasses.replace(DEFAULT_CONFIG, table_bound=4)
    assert compare(zoo.por(5), zoo.por(2), bound4, allow_terms=True).relation == "unknown"
    assert calls == []


def test_term_route_over_the_cell_cap_is_a_note():
    """por_i(17) within a table bound of 20 and a budget of 10^12 still
    needs 3^17 cells, above the fixed cell cap: the term route is
    skipped with a note, as the mapping search is, and the separation
    already found stands."""
    wide = dataclasses.replace(DEFAULT_CONFIG, budget=10**12, table_bound=20)
    verdict = compare(zoo.por(17), zoo.por(16), wide, allow_terms=True)
    assert verdict.relation == "unknown"
    assert [c.kind for c in verdict.evidence] == ["separation"]
    assert (
        "term route por_i(17) -> por_i(16) skipped (term arity 17 needs 3^17 "
        "cells, above cell cap 100000000)"
    ) in verdict.notes


def test_term_route_is_refused_above_the_budget_before_inlining(monkeypatch):
    """The por_i(2) -> por_i(6) chain calls the oracle 3*4*5*6 / 2 = 360
    times, each over 3^6 cells: 262,440 cells, evaluated at that budget
    and refused one below it, with a note and before any step is
    inlined.  por_i(9) at table bound 9 (3.6e9 cells) is refused at once."""
    calls = []

    def counted(outer, inner):
        calls.append(outer.arity)
        return inline_oracle(outer, inner)

    monkeypatch.setattr(definability, "inline_oracle", counted)
    at = dataclasses.replace(DEFAULT_CONFIG, budget=262440)
    assert compare(zoo.por(6), zoo.por(2), at, allow_terms=True).relation == "left_below_strict"
    assert calls == [4, 5, 6]
    calls.clear()
    below = dataclasses.replace(DEFAULT_CONFIG, budget=262439)
    verdict = compare(zoo.por(6), zoo.por(2), below, allow_terms=True)
    assert calls == []
    assert verdict.relation == "unknown"
    assert (
        "term route por_i(6) -> por_i(2) skipped (term route needs 262440 states, "
        "budget allows 262439)"
    ) in verdict.notes
    wide = dataclasses.replace(DEFAULT_CONFIG, table_bound=9)
    start = time.perf_counter()
    verdict = compare(zoo.por(9), zoo.por(2), wide, allow_terms=True)
    assert time.perf_counter() - start < 1
    assert verdict.relation == "unknown" and calls == []
    assert any(n.startswith("term route por_i(9) -> por_i(2) skipped") for n in verdict.notes)


def test_coherence_bound_is_refused_before_the_mapping_searches():
    """compare needs both levels, and por_i(100)'s 101 entries are past
    the coherence bound: that is refused before bm_search walks the
    101^3 mappings of por_i(2) into it."""
    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="above coherence bound"):
        compare(zoo.por(100), zoo.por(2), allow_terms=True)
    assert time.perf_counter() - start < 1


def test_compare_gustave_below_stable_top():
    assert compare(zoo.gustave(1), zoo.bp()).relation == "left_below_strict"


def test_compare_incomparable():
    # levels (inf, 2) vs (4, 4): each side breaks a relation the other
    # respects, and no trace mapping exists in either direction
    verdict = compare(zoo.gustave(1), zoo.bivalued_gustave(2, 1))
    assert verdict.relation == "incomparable"


MIRRORED = {"left_below_strict": "right_below_strict", "right_below_strict": "left_below_strict"}


def assert_mirrored(f, g, allow_terms=False):
    """compare(g, f) is compare(f, g) with left and right swapped: the
    relation is swapped and the evidence is the same certificates."""
    forward = compare(f, g, allow_terms=allow_terms)
    backward = compare(g, f, allow_terms=allow_terms)
    assert backward.relation == MIRRORED.get(forward.relation, forward.relation), (f, g)
    certificates = [
        collections.Counter(json.dumps(c.to_json_dict(), sort_keys=True) for c in v.evidence)
        for v in (forward, backward)
    ]
    assert certificates[0] == certificates[1], (f, g)


@pytest.mark.parametrize("allow_terms", [False, True], ids=["plain", "terms"])
def test_compare_mirrors_on_catalog_pairs(allow_terms):
    fns = zoo.catalog(max_arity=3) + [fn_sum(zoo.bp(), zoo.ttdet())]
    for f, g in itertools.product(fns, repeat=2):
        assert_mirrored(f, g, allow_terms)


@settings(deadline=None)
@given(random_traces(arities=(2, 3), max_entries=6), random_traces(arities=(2, 3), max_entries=6))
def test_compare_mirrors_on_random_traces(f, g):
    assert_mirrored(f, g)


def test_certificates_serialize_and_replay():
    verdict = compare(zoo.bivalued_gustave(2, 1), zoo.bivalued_gustave(1, 1))
    for cert in verdict.evidence:
        d = cert.to_json_dict()
        assert d["verified"] is True
        assert set(d) == {"kind", "source", "target", "payload", "verified"}
        if cert.kind == "separation":
            rel = parse_relation(d["payload"]["relation"])
            witness = InvarianceWitness(
                rel,
                tuple(TriTuple.from_text(s) for s in d["payload"]["witness_inputs"]),
                TriTuple.from_text(d["payload"]["witness_output"]),
            )
            assert witness.verify(zoo.bivalued_gustave(1, 1))
        if cert.kind == "bm_mapping":
            assert len(d["payload"]["mapping"]) == cert.source.trace_size


def test_mapping_certificate_payload():
    m = bm_search(zoo.ttdet(), zoo.det())
    cert = mapping_certificate(m)
    assert cert.kind == "bm_mapping"
    assert cert.claim() == "ttdet is definable from det"


# ---------------------------------------------------------------------------
# Mapping check and search against the condition written by definition
# ---------------------------------------------------------------------------

def coherent_combos(fn):
    """The coherent subsets of two or more entries, as index tuples."""
    for size in range(2, fn.trace_size + 1):
        for combo in itertools.combinations(range(fn.trace_size), size):
            if plainly_coherent([fn.entries[i].input for i in combo]):
                yield combo


def images_kept_by_definition(mapping) -> bool:
    """Every non-singleton coherent subset of source entries has a
    coherent image of two or more target entries."""
    tgt, assignment = mapping.target, mapping.assignment
    for combo in coherent_combos(mapping.source):
        image = {assignment[i] for i in combo}
        if len(image) < 2 or not plainly_coherent([tgt.entries[t].input for t in image]):
            return False
    return True


def outputs_kept_by_definition(mapping) -> bool:
    """In no coherent subset of source entries is a target output
    reached from source entries of both outputs."""
    src, tgt, assignment = mapping.source, mapping.target, mapping.assignment
    for combo in coherent_combos(src):
        reached = {
            out: {tgt.entries[assignment[i]].output for i in combo if src.entries[i].output == out}
            for out in (TT, FF)
        }
        if reached[TT] & reached[FF]:
            return False
    return True


def check_bm_by_definition(mapping) -> bool:
    return images_kept_by_definition(mapping) and outputs_kept_by_definition(mapping)


def polarity_constant_on_mixed_components(mapping) -> bool:
    """An entry's polarity is its target output xor its source output.
    The coherent subsets with both source outputs join entries into
    components (each named by its lowest entry); polarity is constant
    on each."""
    src, tgt, assignment = mapping.source, mapping.target, mapping.assignment
    component = list(range(src.trace_size))
    for combo in coherent_combos(src):
        if len({src.entries[i].output for i in combo}) == 2:
            joined = {component[i] for i in combo}
            component = [min(joined) if c in joined else c for c in component]
    polarity = [
        (tgt.entries[t].output == TT) != (src.entries[i].output == TT)
        for i, t in enumerate(assignment)
    ]
    return all(polarity[i] == polarity[c] for i, c in enumerate(component))


def draw_assignment(data, src, tgt) -> tuple[int, ...]:
    # random_traces always keeps its first candidate, so tgt is not empty
    index = st.integers(0, tgt.trace_size - 1)
    size = src.trace_size
    return tuple(data.draw(st.lists(index, min_size=size, max_size=size)))


source_traces = random_traces(arities=(3,), max_entries=6)


@settings(deadline=None)
@given(source_traces, random_traces(arities=(3, 4), max_entries=6), st.data())
def test_check_bm_equals_definition(src, tgt, data):
    mapping = BMMapping(src, tgt, draw_assignment(data, src, tgt))
    assert check_bm(mapping) == check_bm_by_definition(mapping)


@settings(deadline=None)
@given(source_traces, random_traces(arities=(3, 4), max_entries=6), st.data())
def test_polarity_premise(src, tgt, data):
    """The search's polarity rule: the output half of the mapping
    condition holds exactly when polarity is constant on each component
    of the coherent subsets with both source outputs."""
    mapping = BMMapping(src, tgt, draw_assignment(data, src, tgt))
    assert outputs_kept_by_definition(mapping) == polarity_constant_on_mixed_components(mapping)


@settings(deadline=None)
@given(source_traces, random_traces(arities=(3, 4), max_entries=6))
def test_bm_search_hit_passes_definition(src, tgt):
    """A hit passes the definition; on small spaces the search returns
    the first passing assignment in lexicographic order, or None when
    none passes."""
    mapping = bm_search(src, tgt)
    if mapping is not None:
        assert check_bm_by_definition(mapping)
    if tgt.trace_size**src.trace_size <= 4096:
        first = next(
            (
                a
                for a in itertools.product(range(tgt.trace_size), repeat=src.trace_size)
                if check_bm_by_definition(BMMapping(src, tgt, a))
            ),
            None,
        )
        assert (None if mapping is None else mapping.assignment) == first


# ---------------------------------------------------------------------------
# The search against the search that tries every child
# ---------------------------------------------------------------------------

def images_ok(masks, assignment, src, tgt) -> bool:
    """The mapping condition on the given source masks alone."""
    for mask in masks:
        image = outs_tt = outs_ff = 0
        bits = mask
        while bits:
            low = bits & -bits
            t = assignment[low.bit_length() - 1]
            image |= 1 << t
            if src.tt_mask & low:
                outs_tt |= 1 << (tgt.tt_mask >> t & 1)
            else:
                outs_ff |= 1 << (tgt.tt_mask >> t & 1)
            bits ^= low
        if image.bit_count() < 2 or not mask_coherent(image, tgt.planes):
            return False
        if outs_tt & outs_ff:
            return False
    return True


def per_child_search(f, g) -> tuple[int, ...] | None:
    """The first passing assignment in lexicographic order, or None:
    every target is tried at every node, and a subset is checked once
    its highest entry is assigned."""
    by_max = [[] for _ in range(f.trace_size)]
    for mask in f.coherent_subsets:
        by_max[mask.bit_length() - 1].append(mask)
    assignment = []

    def dfs(depth):
        if depth == f.trace_size:
            return True
        for t in range(g.trace_size):
            assignment.append(t)
            if images_ok(by_max[depth], assignment, f, g) and dfs(depth + 1):
                return True
            assignment.pop()
        return False

    return tuple(assignment) if dfs(0) else None


def assert_same_search(pairs):
    for f, g in pairs:
        mapping = bm_search(f, g)
        assert (None if mapping is None else mapping.assignment) == per_child_search(f, g), (f, g)


def test_bm_search_equals_per_child_search_to_arity_2():
    """Every ordered pair of the monotone functions of arity 1 and 2 and
    the catalog functions of arity 3 or less."""
    fns = [*enumerate_monotone(1), *enumerate_monotone(2), *zoo.catalog(max_arity=3)]
    assert_same_search(itertools.product(fns, repeat=2))


def test_bm_search_equals_per_child_search_on_arity_3_sample():
    tables = monotone_tables(3)
    rows = random.Random(20261020).sample(range(len(tables)), 600)
    fns = [trace_from_table(3, tables[i]) for i in rows]
    assert_same_search(zip(fns[::2], fns[1::2]))
