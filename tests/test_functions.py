"""Trace/evaluation round trips, the two constructions, and the
stability / sequentiality predicates.  Trace validation and stability
are checked on random entry lists against the pairwise definitions."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from parlevel import (
    BOT,
    FF,
    TT,
    ArityMismatchError,
    BoundExceededError,
    ComparableRowsError,
    FormatError,
    InconsistentOutputsError,
    MonotoneFn,
    NonMonotoneTableError,
    Tri,
    TraceEntry,
    TriTuple,
    entry,
    fn_sum,
    format_trace,
    is_m_sequential,
    neg,
    parse_term,
    parse_trace,
    table_of,
    trace_from_table,
    validate_trace,
    zoo,
)
from parlevel.functions import read_number
from test_lattice import all_tuples, oracle_compatible, oracle_leq
from test_plevels import oracle_first_violation, random_traces


def t(text: str) -> TriTuple:
    return TriTuple.from_text(text)


def test_eval_examples():
    f = zoo.ttdet()
    assert f.eval(t("T_")) == TT
    assert f.eval(t("__")) == BOT
    assert f.eval(t("TT")) == TT


def test_eval_arity_mismatch():
    with pytest.raises(Exception):
        zoo.ttdet().eval(t("T"))


def test_trace_from_table_por2():
    table = [zoo.por(2).eval(x) for x in all_tuples(2)]  # code order
    rebuilt = trace_from_table(2, table)
    assert rebuilt == zoo.por(2)


def test_trace_from_table_constant():
    table = [TT] * 3**3
    fn = trace_from_table(3, table)
    assert fn.entries == (entry("___", "T"),)


@st.composite
def non_monotone_tables(draw):
    """Arity 1-4 tables the scalar scan rejects: uniform random ones, or
    a monotone table (of a random trace) with a few cells overwritten."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        vals = draw(st.lists(st.integers(0, 2), min_size=3**k, max_size=3**k))
    else:
        vals = list(table_of(draw(random_traces(arities=(k,)))))
        for _ in range(draw(st.integers(1, 3))):
            vals[draw(st.integers(0, 3**k - 1))] = draw(st.integers(0, 2))
    assume(oracle_first_violation(k, vals) is not None)
    return k, vals


@settings(deadline=None)
@given(non_monotone_tables())
@example((1, [TT, FF, BOT]))  # codes of _, T, F
def test_trace_from_table_rejects_non_monotone(case):
    k, table = case
    with pytest.raises(NonMonotoneTableError) as exc:
        trace_from_table(k, table)
    low, high = oracle_first_violation(k, table)
    assert exc.value.low == TriTuple.decode(low, k).text
    assert exc.value.high == TriTuple.decode(high, k).text


def test_trace_from_table_rejects_wrong_row_count():
    with pytest.raises(ArityMismatchError, match="table has 8 rows, expected 9 for arity 2"):
        trace_from_table(2, [BOT] * 8)


def test_validate_trace_accepts_bp():
    fn = validate_trace(3, [entry("_TF", "T"), entry("TF_", "F"), entry("F_T", "F")])
    assert fn.trace_size == 3


def test_validate_trace_rejects_comparable_rows():
    with pytest.raises(ComparableRowsError):
        validate_trace(2, [entry("_T", "T"), entry("TT", "T")])


def test_validate_trace_rejects_comparable_even_when_inconsistent():
    with pytest.raises(ComparableRowsError):
        validate_trace(2, [entry("T_", "T"), entry("TT", "F")])


def test_validate_trace_rejects_inconsistent_outputs():
    with pytest.raises(InconsistentOutputsError):
        validate_trace(2, [entry("T_", "T"), entry("_T", "F")])


def test_validate_trace_rejects_duplicates():
    with pytest.raises(ComparableRowsError):
        validate_trace(2, [entry("T_", "T"), entry("T_", "T")])


def test_trace_outputs_must_be_defined():
    with pytest.raises(InconsistentOutputsError):
        entry("T_", Tri.BOT)


def test_neg_examples():
    assert all(e.output == FF for e in neg(zoo.ttdet()).entries)
    flipped = neg(zoo.bp())
    assert sorted(int(e.output) for e in flipped.entries) == [1, 1, 2]
    for fn in zoo.catalog(max_arity=5):
        assert neg(neg(fn)) == fn
        assert neg(fn).arity == fn.arity
        assert neg(fn).trace_size == fn.trace_size
        assert neg(fn).stable == fn.stable


def test_sum_example_bp_ttdet():
    s = fn_sum(zoo.bp(), zoo.ttdet())
    assert s.arity == 4
    assert s.trace_size == 5
    inputs = {e.input.text for e in s.entries}
    assert inputs == {"T_TF", "TTF_", "TF_T", "FFT_", "FF_T"}


def test_sum_orients_wider_first():
    assert fn_sum(zoo.ttdet(), zoo.bp()) == fn_sum(zoo.bp(), zoo.ttdet())


def test_sum_trace_sizes_add_and_validate():
    pairs = [(zoo.bp(), zoo.gustave(1)), (zoo.por(2), zoo.det()), (zoo.ttdet(), zoo.ttdet())]
    for f, g in pairs:
        s = fn_sum(f, g)
        assert s.trace_size == f.trace_size + g.trace_size
        # construction passed MonotoneFn validation by virtue of existing


def test_stability_examples():
    assert zoo.bp().stable
    assert not zoo.por(2).stable
    for i in range(1, 5):
        assert zoo.gustave(i).stable


tri = st.sampled_from([BOT, TT, FF])


@st.composite
def entry_lists(draw):
    """Arity and up to eight random entries, valid as a trace or not."""
    k = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(st.lists(tri, min_size=k, max_size=k), st.sampled_from([TT, FF])),
            max_size=8,
        )
    )
    return k, [TraceEntry(TriTuple(tuple(x)), out) for x, out in rows]


@settings(deadline=None)
@given(entry_lists())
@example((2, [entry("T_", "T"), entry("_T", "T")]))
def test_construction_rejects_exactly_the_pairwise_violations(case):
    """The first pair of entries, in sorted order, that is comparable or
    compatible with different outputs names the error; a valid trace is
    stable exactly when no pair is compatible."""
    k, rows = case
    pairs = list(itertools.combinations(sorted(rows, key=lambda e: e.key), 2))

    def comparable(a, b):
        return oracle_leq(a.input, b.input) or oracle_leq(b.input, a.input)

    def inconsistent(a, b):
        return a.output != b.output and oracle_compatible(a.input, b.input)

    bad = [(a, b) for a, b in pairs if comparable(a, b) or inconsistent(a, b)]
    if not bad:
        fn = MonotoneFn(k, tuple(rows))
        assert fn.stable == (not any(oracle_compatible(a.input, b.input) for a, b in pairs))
        return
    a, b = bad[0]
    if comparable(a, b):
        error = ComparableRowsError(f"comparable trace inputs: {a.input.text} and {b.input.text}")
    else:
        error = InconsistentOutputsError(f"compatible inputs with different outputs: {a} and {b}")
    with pytest.raises(type(error)) as raised:
        MonotoneFn(k, tuple(rows))
    assert type(raised.value) is type(error) and str(raised.value) == str(error)


@settings(deadline=None)
@given(random_traces(arities=(2, 3, 4)))
def test_stable_iff_no_compatible_pair(fn):
    assert fn.stable == (not any(
        oracle_compatible(a, b) for a, b in itertools.combinations(fn.inputs, 2)
    ))


@settings(deadline=None)
@given(random_traces(arities=(2, 3, 4)))
def test_coherence_facts_match_entries(fn):
    assert len(fn.planes) == fn.arity
    for c, plane in enumerate(fn.planes):
        for p, e in enumerate(fn.entries):
            held = [bool(mask >> p & 1) for mask in plane]
            assert held == [e.input.entries[c] == v for v in (BOT, TT, FF)]
    for p, e in enumerate(fn.entries):
        assert bool(fn.tt_mask >> p & 1) == (e.output == TT)
    renamed = fn.renamed("other")
    assert renamed == fn and hash(renamed) == hash(fn)


def test_monovalued_examples():
    assert len(set(zoo.gustave(1).outputs)) == 1
    assert len(set(zoo.bp().outputs)) == 2
    assert len(set(zoo.bivalued_gustave(1, 1).outputs)) == 2


def test_m_sequential_examples():
    assert is_m_sequential(zoo.left_strict_and())
    const = validate_trace(2, [entry("__", "T")])
    assert is_m_sequential(const)
    assert is_m_sequential(validate_trace(1, []))  # constantly undefined
    assert not is_m_sequential(zoo.por(2))


def test_m_sequential_bound():
    with pytest.raises(BoundExceededError):
        is_m_sequential(zoo.gustave(3))  # arity 7 over the default bound


def test_table_roundtrip_all_zoo():
    for fn in zoo.catalog():
        table = list(table_of(fn))
        rebuilt = trace_from_table(fn.arity, table)
        assert rebuilt == fn, fn.name


def test_eval_monotone_on_covering_pairs():
    for fn in zoo.catalog(max_arity=4):
        assert oracle_first_violation(fn.arity, table_of(fn)) is None, fn.name


@settings(deadline=None)
@given(st.one_of(
    random_traces(arities=(1, 2, 3, 4, 5)), st.sampled_from(zoo.catalog(max_arity=5))
))
@example(zoo.bivalued_gustave(2, 1))
def test_eval_agrees_with_table(fn):
    table = table_of(fn)
    assert table.dtype == np.int8 and not table.flags.writeable
    for x in all_tuples(fn.arity):
        assert int(fn.eval(x)) == table[x.encode()]
    assert trace_from_table(fn.arity, table) == fn


def test_entries_sorted_canonically():
    fn = MonotoneFn(
        3,
        (entry("F_T", "F"), entry("_TF", "T"), entry("TF_", "F")),
    )
    assert [e.input.text for e in fn.entries] == ["_TF", "TF_", "F_T"]
    assert fn == zoo.bp()


def test_trace_format_roundtrip():
    for fn in zoo.catalog(max_arity=5):
        assert parse_trace(format_trace(fn)) == fn


def test_trace_format_keeps_name():
    text = format_trace(zoo.bp())
    assert text.startswith("# name: bp\n")
    assert parse_trace(text).name == "bp"


def test_parse_trace_errors_carry_line_numbers():
    with pytest.raises(FormatError) as exc:
        parse_trace("arity 2\nT_ -> T\nTT => F\n")
    assert "line 3" in str(exc.value)
    with pytest.raises(FormatError):
        parse_trace("T_ -> T\n")  # rows before arity
    with pytest.raises(FormatError):
        parse_trace("arity 2\nT_T -> T\n")  # wrong tuple length
    with pytest.raises(FormatError):
        parse_trace("arity 2\nT_ -> X\n")  # bad output


@pytest.mark.parametrize(
    "text, line",
    [
        ("arity \u00b3\nT__ -> T\n", 1),  # superscript digit
        ("# c\narity \u0663\n", 2),  # non-ASCII decimal digit
        ("arityfoo 2\nT_ -> T\n", 1),  # not the arity keyword
    ],
)
def test_parse_trace_malformed_arity_is_line_numbered(text, line):
    with pytest.raises(FormatError) as exc:
        parse_trace(text)
    assert exc.value.line == line


def test_read_number_takes_ascii_digits_up_to_the_digit_limit():
    assert read_number("0042") == 42
    assert read_number("9" * 4300) == 10**4300 - 1
    for text in ("", "\u00b3", "\u0663", "+1", "1_0", " 1", "-1", "1.0", "x"):
        assert read_number(text) is None, text
    with pytest.raises(FormatError) as exc:
        read_number("0" * 4301, 7)
    assert str(exc.value) == "line 7: number of 4301 digits above bound 4300"


@pytest.mark.parametrize("parse, body", [(parse_trace, "T_ -> T"), (parse_term, "(g x1 x2)")],
                         ids=["trace", "term"])
@pytest.mark.parametrize(
    "text, message, line",
    [
        ("# no header\n\n", "missing arity line", None),
        ("arity 2\n{body}\narity 2\n", "duplicate arity line", 3),
        ("# c\narity two\n{body}\n", "bad arity line 'arity two'", 2),
        ("arity 0\n{body}\n", "arity must be >= 1", 1),
        ("# c\n{body}\narity 2\n", "content before arity line", 2),
    ],
    ids=["missing", "duplicate", "malformed", "zero", "content-first"],
)
def test_trace_and_term_files_share_one_header_rule(parse, body, text, message, line):
    with pytest.raises(FormatError) as exc:
        parse(text.format(body=body))
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


@pytest.mark.parametrize(
    "text, name",
    [
        ("# name:\narity 1\nT -> T\n", None),
        ("# name: f\narity 1\n#  NAME:   \nT -> T\n", "f"),
    ],
    ids=["empty", "empty-after-name"],
)
def test_empty_name_comment_names_nothing(text, name):
    assert parse_trace(text).name == name


def test_parse_trace_accepts_comments_and_blanks():
    fn = parse_trace("# a comment\n\narity 2\n# another\nT_ -> T\n_T -> T\n")
    assert fn == zoo.ttdet()


def test_name_ignored_by_equality():
    assert zoo.bp().renamed("other") == zoo.bp()
