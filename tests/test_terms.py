"""Term evaluation, the replayed constructions, composition, and the
file format."""

from __future__ import annotations

import dataclasses
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parlevel import (
    BOT,
    FF,
    TT,
    App,
    BoundExceededError,
    Const,
    DEFAULT_CONFIG,
    FormatError,
    InapplicableError,
    Term,
    TermArityError,
    Tri,
    TriTuple,
    Var,
    bg_rotation_terms,
    eval_term,
    format_term,
    inline_oracle,
    mono_to_det_term,
    parse_term,
    por_step_term,
    trace_from_table,
    validate_trace,
    entry,
    zoo,
)
from parlevel.functions import NESTING_BOUND
from parlevel import terms
from parlevel.terms import ALLEQ, CONNECTIVES, ORACLE, alleq
from test_lattice import all_tuples

WIDE = dataclasses.replace(DEFAULT_CONFIG, table_bound=7)


def test_identity_term():
    term = Term(1, Var(1))
    fn = eval_term(term, zoo.ttdet())
    ident = validate_trace(1, [entry("T", "T"), entry("F", "F")])
    assert fn == ident


def test_builtin_tables():
    # left-strict conjunction: (and x1 x2)
    term = Term(2, App("and", (Var(1), Var(2))))
    fn = eval_term(term, zoo.ttdet())
    assert fn == zoo.left_strict_and()
    # strict negation flips the identity
    term = Term(1, App("not", (Var(1),)))
    fn = eval_term(term, zoo.ttdet())
    assert fn == validate_trace(1, [entry("T", "F"), entry("F", "T")])


def test_nested_detector_gives_three_way_detector():
    term = Term(3, App(ORACLE, (App(ORACLE, (Var(1), Var(2))), Var(3))))
    fn = eval_term(term, zoo.ttdet())
    assert fn == zoo.ntdet(3)


def test_alleq_needs_shared_defined_value():
    term = Term(2, App("alleq", (Var(1), Var(2))))
    fn = eval_term(term, zoo.ttdet())
    assert fn == validate_trace(2, [entry("TT", "T"), entry("FF", "F")])


def test_por_step_term_shape_and_replay():
    for i in (2, 3):
        term = por_step_term(i)
        assert term.arity == i + 1
        calls = term.root.args
        assert len(calls) == i + 1
        assert all(c.fn == ORACLE and len(c.args) == i for c in calls)
        assert eval_term(term, zoo.por(i)) == zoo.por(i + 1)
    with pytest.raises(InapplicableError):
        por_step_term(1)


def test_bg_rotation_replay():
    for i in (2, 3):
        m1, m2 = bg_rotation_terms(i)
        for j in range(2, i + 1):
            assert eval_term(m1, zoo.bivalued_gustave(i, j - 1), WIDE) == zoo.bivalued_gustave(i, j)
            assert eval_term(m2, zoo.bivalued_gustave(i, j), WIDE) == zoo.bivalued_gustave(i, j - 1)


def test_bg_rotation_degenerate_range_still_monotone():
    m1, m2 = bg_rotation_terms(1)
    eval_term(m1, zoo.bivalued_gustave(1, 1))  # must not raise
    eval_term(m2, zoo.bivalued_gustave(1, 1))


def test_mono_to_det_literal_structure():
    term = mono_to_det_term(zoo.gustave(1))
    assert format_term(term) == (
        "arity 3\n"
        "(g (and x2 (not x3)) (and x1 (not x2)) (and (not x1) x3))\n"
    )


def test_mono_to_det_replay():
    for i in (1, 2):
        g = zoo.gustave(i)
        assert eval_term(mono_to_det_term(g), zoo.ntdet(g.trace_size), WIDE) == g


def test_mono_to_det_negative_orientation():
    from parlevel import neg

    f = neg(zoo.gustave(1))
    term = mono_to_det_term(f)
    assert eval_term(term, zoo.ntdet(3)) == f


def test_mono_to_det_rejects_bivalued():
    with pytest.raises(InapplicableError):
        mono_to_det_term(zoo.bp())


def test_inline_oracle_matches_staged_evaluation():
    inner = por_step_term(2)
    outer = por_step_term(3)
    combined = inline_oracle(outer, inner)
    staged = eval_term(outer, eval_term(inner, zoo.por(2)))
    assert eval_term(combined, zoo.por(2)) == staged == zoo.por(4)


def test_chained_steps_climb_the_whole_ladder():
    for j in range(2, 6):
        for i in range(j, 6):
            if i == j:
                continue
            term = por_step_term(j)
            for mid in range(j + 1, i):
                term = inline_oracle(por_step_term(mid), term)
            assert eval_term(term, zoo.por(j)) == zoo.por(i), (j, i)


def test_validation_errors():
    with pytest.raises(TermArityError):
        eval_term(Term(1, Var(2)), zoo.ttdet())
    with pytest.raises(TermArityError):
        eval_term(Term(1, App(ORACLE, (Var(1),))), zoo.ttdet())
    with pytest.raises(TermArityError):
        eval_term(Term(1, App("ite", (Var(1),))), zoo.ttdet())
    with pytest.raises(TermArityError):
        eval_term(Term(1, App("mystery", (Var(1),))), zoo.ttdet())


def test_table_bound():
    term = Term(7, Var(1))
    with pytest.raises(BoundExceededError):
        eval_term(term, zoo.ttdet())
    eval_term(term, zoo.ttdet(), WIDE)


def test_parse_format_roundtrip():
    for term in (
        por_step_term(2),
        bg_rotation_terms(2)[0],
        mono_to_det_term(zoo.gustave(1)),
        Term(2, Const(Tri.TT)),
    ):
        again = parse_term(format_term(term))
        assert again == term


def test_parse_term_errors():
    with pytest.raises(FormatError):
        parse_term("(g x1)")  # no arity line
    with pytest.raises(FormatError):
        parse_term("arity 2\n(g x1 x2")  # unbalanced
    with pytest.raises(FormatError):
        parse_term("arity 2\n(frob x1)")
    with pytest.raises(FormatError):
        parse_term("arity 2\nx1 x2")  # trailing tokens
    with pytest.raises(FormatError):
        parse_term("arity 2\n")  # no expression


@pytest.mark.parametrize(
    "text, line",
    [
        ("arity \u00b3\n(g x1 x2 x3)\n", 1),  # superscript digit
        ("# c\narity \u0663\n(g x1 x2 x3)\n", 2),  # non-ASCII decimal digit
        ("arity 2\n(g x\u00b9 x2)\n", 2),  # superscript variable index
        ("arityfoo 2\n(g x1 x2)\n", 1),  # not the arity keyword
        ("arity 0\n(g x1)\n", 1),  # arity below 1
    ],
)
def test_parse_term_malformed_numbers(text, line):
    with pytest.raises(FormatError) as exc:
        parse_term(text)
    assert exc.value.line == line


def test_parse_term_accepts_comments():
    term = parse_term("# doubled first coordinate\narity 2\n(or x1 x1)\n")
    assert term == Term(2, App("or", (Var(1), Var(1))))


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("arity 2\n(g x1\n  y2)\n", "bad token 'y2'", 3),
        ("arity 2\n(alleq\n (frob x1) x2)\n", "unknown symbol 'frob'", 3),
        ("arity 2\n(g x1\n(( x2)\n", "expected a symbol after '(', got '('", 3),
        ("arity 1\n# c\n\n)\n", "unexpected ')'", 4),
        ("arity 2\n(alleq\n  (g x1 x2)\n  (g x2 x1)\n", "missing ')'", 2),
        ("arity 2\n(alleq (g x1 x2)\n (g x2 x1\n", "missing ')'", 3),
        ("arity 2\n(alleq x1\n(\n# c\n", "unexpected end of term", 3),
        ("arity 2\n(g x1 x2)\n\nx1 tt\n", "trailing tokens after term: ['x1', 'tt']", 4),
    ],
    ids=["bad-token", "unknown-symbol", "no-symbol", "unexpected-close", "missing-close",
         "missing-inner-close", "end-of-term", "trailing-tokens"],
)
def test_parse_term_errors_are_line_numbered(text, message, line):
    with pytest.raises(FormatError) as exc:
        parse_term(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_parse_term_nesting_bound():
    at_bound = "arity 1\n" + "(not " * NESTING_BOUND + "x1" + ")" * NESTING_BOUND
    identity = validate_trace(1, [entry("T", "T"), entry("F", "F")])
    assert eval_term(parse_term(at_bound), zoo.ttdet()) == identity
    # one '(' a line after the arity line: the first one past the bound
    # sits on line NESTING_BOUND + 2
    deep = "arity 1\n" + "(not\n" * 1200 + "x1" + ")" * 1200 + "\n"
    with pytest.raises(FormatError) as exc:
        parse_term(deep)
    assert exc.value.line == NESTING_BOUND + 2
    assert "nesting" in str(exc.value)


def test_alleq_table_bound():
    term = Term(1, App(ALLEQ, (Var(1),) * 7))
    with pytest.raises(BoundExceededError, match="alleq over 7 arguments above table bound 6"):
        eval_term(term, zoo.ttdet())
    assert eval_term(term, zoo.ttdet(), WIDE) == eval_term(Term(1, Var(1)), zoo.ttdet())


def test_eval_checks_in_its_one_pre_order_walk():
    """An alleq is bound-checked before the arguments under it are
    walked, and an error before it in pre-order comes first."""
    under = Term(1, App(ALLEQ, (Var(2),) * 7))
    with pytest.raises(BoundExceededError, match="alleq over 7"):
        eval_term(under, zoo.ttdet())
    with pytest.raises(TermArityError, match="variable x2 outside 1..1"):
        eval_term(under, zoo.ttdet(), WIDE)
    before = Term(1, App("and", (Var(2), under.root)))
    with pytest.raises(TermArityError, match="variable x2 outside 1..1"):
        eval_term(before, zoo.ttdet())


def test_eval_checks_in_pre_order_under_sharing():
    """A repeated subterm is one shared node, walked and computed once,
    and a node walked without error holds no fault, so the first fault
    in pre-order is still the one raised."""
    twice = parse_term("arity 2\n(and (g x1 x1) (and (g x1 x1) x3))\n")
    with pytest.raises(TermArityError, match=r"^variable x3 outside 1\.\.2$"):
        eval_term(twice, zoo.ttdet())
    # the alleq above the bound raises before x3 under it is walked
    wide = parse_term("arity 2\n(and (g x1 x1) (alleq (g x1 x1) x3 x3 x3 x3 x3 x3))\n")
    with pytest.raises(BoundExceededError, match="^alleq over 7 arguments above table bound 6$"):
        eval_term(wide, zoo.ttdet())
    with pytest.raises(TermArityError, match=r"^variable x3 outside 1\.\.2$"):
        eval_term(wide, zoo.ttdet(), WIDE)
    # a fault in the first copy comes before the shared one's second use
    first = parse_term("arity 2\n(or (g x1 x1 x1) (g x1 x1 x1))\n")
    with pytest.raises(TermArityError, match="^oracle applied to 3 arguments, oracle arity is 2$"):
        eval_term(first, zoo.ttdet())


def test_eval_term_looks_up_each_distinct_application_once(monkeypatch):
    term = por_step_term(2)
    for mid in (3, 4, 5):
        term = inline_oracle(por_step_term(mid), term)

    def applications(node, seen):
        if isinstance(node, App):
            seen.add(terms.format_node(node))
            for a in node.args:
                applications(a, seen)
        return seen

    assert terms.oracle_calls(term.root) == 360
    assert len(applications(term.root, set())) == 57
    looked_up = []
    table_of = terms.table_of
    monkeypatch.setattr(terms, "table_of", lambda fn: looked_up.append(fn) or table_of(fn))
    assert eval_term(term, zoo.por(2)) == zoo.por(6)
    assert len(looked_up) == 57


@pytest.mark.parametrize("reparse", [False, True], ids=["inlined", "parsed"])
def test_eval_term_walks_each_distinct_application_once(reparse):
    """`inline_oracle` and `parse_term` make equal applications one
    object, and `eval_term` walks a node object once: on the inlined
    por_i(4) -> por_i(7) chain, as built and as read back from its text,
    `number` runs once on each of its 64 distinct applications, not on
    each of the 260 of its tree."""
    term = por_step_term(4)
    for mid in (5, 6):
        term = inline_oracle(por_step_term(mid), term)
    if reparse:
        term = parse_term(format_term(term))

    def applications(node):
        if isinstance(node, App):
            yield terms.format_node(node)
            for a in node.args:
                yield from applications(a)

    tree = list(applications(term.root))
    number = next(c for c in eval_term.__code__.co_consts if getattr(c, "co_name", "") == "number")
    walked = 0

    def profile(frame, event, arg):
        nonlocal walked
        if event == "call" and frame.f_code is number and isinstance(frame.f_locals["node"], App):
            walked += 1

    sys.setprofile(profile)
    try:
        result = eval_term(term, zoo.por(4), WIDE)
    finally:
        sys.setprofile(None)
    assert result == zoo.por(7)
    assert len(tree) == 260
    assert walked == len(set(tree)) == 64


def test_eval_term_frees_each_column_after_its_last_use():
    """150 distinct nested negations at arity 10: the peak holds a few
    3^10-cell columns (the (3,)*10 coordinates are 10 int8 columns and
    one int64 index is 8), not the 150 that keeping every column needs."""
    node = Var(1)
    for _ in range(150):
        node = App("not", (node,))
    term = Term(10, node)
    config = dataclasses.replace(DEFAULT_CONFIG, table_bound=10)
    eval_term(term, zoo.ttdet(), config)  # fill the table caches first
    tracemalloc.start()
    try:
        result = eval_term(term, zoo.ttdet(), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 3**10
    assert result == eval_term(Term(10, Var(1)), zoo.ttdet(), config)


# ---------------------------------------------------------------------------
# Properties: the table-lookup evaluator against a per-tuple interpreter
# written from the connectives' definitions
# ---------------------------------------------------------------------------

def _ite(c, a, b):
    if c == BOT:
        return BOT
    return a if c == TT else b


DEFINITIONS = {
    "ite": _ite,
    "not": lambda a: {BOT: BOT, TT: FF, FF: TT}[a],
    "and": lambda a, b: _ite(a, b, FF),
    "or": lambda a, b: _ite(a, TT, b),
    ALLEQ: lambda *xs: xs[0] if xs[0] != BOT and len(set(xs)) == 1 else BOT,
}
ORACLES = zoo.catalog(max_arity=4)


def eval_by_definition(term, oracle):
    def run(node, env):
        if isinstance(node, Var):
            return env[node.index - 1]
        if isinstance(node, Const):
            return node.value
        vals = [run(a, env) for a in node.args]
        if node.fn == ORACLE:
            return oracle.eval(TriTuple(tuple(vals)))
        return DEFINITIONS[node.fn](*vals)

    table = [run(term.root, x.entries) for x in all_tuples(term.arity)]
    return trace_from_table(term.arity, table)


@st.composite
def random_terms(draw, oracle_arity, arity=None, max_depth=3, shared=None):
    """A random term; given `shared`, a leaf may be that subterm."""
    k = arity if arity is not None else draw(st.integers(1, 4))

    def node(depth):
        kinds = ["var", "const", "app"] if depth < max_depth else ["var", "const"]
        kind = draw(st.sampled_from(kinds + ["shared"] * (shared is not None)))
        if kind == "shared":
            return shared
        if kind == "var":
            return Var(draw(st.integers(1, k)))
        if kind == "const":
            return Const(draw(st.sampled_from([BOT, TT, FF])))
        fn = draw(st.sampled_from([ORACLE, ALLEQ, *CONNECTIVES]))
        if fn == ORACLE:
            n = oracle_arity
        elif fn == ALLEQ:
            n = draw(st.integers(1, 3))
        else:
            n = CONNECTIVES[fn].arity
        return App(fn, tuple(node(depth + 1) for _ in range(n)))

    return Term(k, node(0))


oracle_and_term = st.sampled_from(ORACLES).flatmap(
    lambda h: st.tuples(st.just(h), random_terms(h.arity))
)


@settings(deadline=None)
@given(oracle_and_term)
def test_eval_term_equals_per_tuple_interpreter(case):
    oracle, term = case
    assert eval_term(term, oracle) == eval_by_definition(term, oracle)


@st.composite
def terms_reusing_a_subterm(draw):
    """A subterm reused in several argument slots: as the condition and
    the else branch of the root, and as leaves of the then branch."""
    oracle = draw(st.sampled_from(ORACLES))
    k = draw(st.integers(1, 4))
    shared = draw(random_terms(oracle.arity, arity=k, max_depth=2)).root
    body = draw(random_terms(oracle.arity, arity=k, shared=shared)).root
    return oracle, Term(k, App("ite", (shared, body, shared)))


@settings(deadline=None)
@given(terms_reusing_a_subterm())
def test_eval_term_with_shared_subterms_equals_per_tuple_interpreter(case):
    oracle, term = case
    assert eval_term(term, oracle) == eval_by_definition(term, oracle)


@pytest.mark.parametrize("name", [ALLEQ, *CONNECTIVES])
def test_connective_traces_equal_definitions(name):
    traces = [alleq(n) for n in range(1, 5)] if name == ALLEQ else [CONNECTIVES[name]]
    for fn in traces:
        for x in all_tuples(fn.arity):
            assert fn.eval(x) == DEFINITIONS[name](*x.entries), (name, x.text)


@st.composite
def composable_terms(draw):
    h = draw(st.sampled_from(ORACLES))
    inner = draw(random_terms(h.arity, arity=draw(st.integers(1, 3)), max_depth=2))
    outer = draw(random_terms(inner.arity, max_depth=2))
    return h, inner, outer


@settings(deadline=None)
@given(composable_terms())
def test_inline_oracle_equals_staged_evaluation(case):
    h, inner, outer = case
    staged = eval_term(outer, eval_term(inner, h))
    assert eval_term(inline_oracle(outer, inner), h) == staged
