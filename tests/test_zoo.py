"""Exact traces of the named functions, the closed-form cyclic matrices,
the name grammar, and the golden self-test."""

from __future__ import annotations

import time

import pytest

from parlevel import FormatError, fn_sum, neg, zoo
from parlevel.functions import NESTING_BOUND
from parlevel.suites import (
    CYCLIC_MATRIX_1,
    CYCLIC_MATRIX_2,
    GUSTAVE_MATRIX_1,
    verify_zoo_invariants,
)


def rows_of(fn):
    return {(tuple(int(v) for v in e.input.entries), int(e.output)) for e in fn.entries}


def test_bp_exact_trace():
    assert rows_of(zoo.bp()) == {((0, 1, 2), 1), ((1, 2, 0), 2), ((2, 0, 1), 2)}


def test_por2_exact_trace():
    assert rows_of(zoo.por(2)) == {((1, 0), 1), ((0, 1), 1), ((2, 2), 2)}


def test_detector_traces():
    assert rows_of(zoo.ttdet()) == {((1, 0), 1), ((0, 1), 1)}
    assert rows_of(zoo.det()) == {
        ((1, 0), 1),
        ((2, 0), 1),
        ((0, 1), 1),
        ((0, 2), 1),
    }
    assert rows_of(zoo.ntdet(3)) == {
        ((1, 0, 0), 1),
        ((0, 1, 0), 1),
        ((0, 0, 1), 1),
    }


def test_gustave_matches_both_printed_matrices():
    inputs = {tuple(int(v) for v in e.input.entries) for e in zoo.gustave(1).entries}
    assert inputs == GUSTAVE_MATRIX_1 == CYCLIC_MATRIX_1


def test_cyclic_closed_form_matches_hardcoded_matrices():
    one = {tuple(int(v) for v in e.input.entries) for e in zoo.gustave(1).entries}
    two = {tuple(int(v) for v in e.input.entries) for e in zoo.gustave(2).entries}
    assert one == CYCLIC_MATRIX_1
    assert two == CYCLIC_MATRIX_2


def test_cyclic_rows_alternate_off_diagonal():
    for i in (1, 2, 3):
        n = 2 * i + 1
        for e in zoo.gustave(i).entries:
            row = [int(v) for v in e.input.entries]
            r = row.index(0) + 1
            for c in range(1, n + 1):
                if c == r:
                    continue
                expect = 1 if ((c - r) % n) % 2 == 1 else 2
                assert row[c - 1] == expect


def test_bg_outputs_follow_row_index():
    fn = zoo.bivalued_gustave(3, 2)
    for e in fn.entries:
        row = [int(v) for v in e.input.entries]
        r = row.index(0) + 1
        assert int(e.output) == (2 if r <= 2 else 1)


def test_bg_parameter_validation():
    with pytest.raises(FormatError):
        zoo.bivalued_gustave(2, 3)
    with pytest.raises(FormatError):
        zoo.bivalued_gustave(2, 0)
    with pytest.raises(FormatError):
        zoo.por(1)
    with pytest.raises(FormatError):
        zoo.ntdet(0)
    with pytest.raises(FormatError):
        zoo.gustave(0)


def test_make_atoms():
    assert zoo.make("bp") == zoo.bp()
    assert zoo.make("gustave") == zoo.gustave(1)
    assert zoo.make("gustave_i(2)") == zoo.gustave(2)
    assert zoo.make("bg(2,1)") == zoo.bivalued_gustave(2, 1)
    assert zoo.make("por_i(3)") == zoo.por(3)
    assert zoo.make("ntdet(4)") == zoo.ntdet(4)
    assert zoo.make("lsand") == zoo.left_strict_and()
    assert zoo.make(" TTDET ") == zoo.ttdet()


def test_make_compositions():
    assert zoo.make("bp+ttdet") == fn_sum(zoo.bp(), zoo.ttdet())
    assert zoo.make("sum(bp,ttdet)") == fn_sum(zoo.bp(), zoo.ttdet())
    assert zoo.make("neg(bp)") == neg(zoo.bp())
    assert zoo.make("neg(bp)+gustave") == fn_sum(neg(zoo.bp()), zoo.gustave(1))
    assert zoo.make("sum(bg(1,1),por_i(2))") == fn_sum(
        zoo.bivalued_gustave(1, 1), zoo.por(2)
    )


def test_make_errors():
    for bad in ("", "unknown", "bg(1)", "por_i(1,2)", "bp+", "sum(bp)", "gustave_i(x)",
                "bp)+(ttdet", "neg(bp))", "por_i(\u0663)", "bg(2,\u0661)", "ntdet(\uff13)"):
        with pytest.raises(FormatError):
            zoo.make(bad)
    for unbalanced in ("bp)+(ttdet", "neg(bp))", "sum(bp,ttdet))", "neg(bp"):
        with pytest.raises(FormatError, match="unbalanced"):
            zoo.make(unbalanced)


def test_make_nesting_bound():
    at_bound = "neg(" * NESTING_BOUND + "bp" + ")" * NESTING_BOUND
    assert zoo.make(at_bound) == zoo.bp()  # an even number of negations
    with pytest.raises(FormatError, match="nesting"):
        zoo.make("neg(" * 1200 + "bp" + ")" * 1200)


@pytest.mark.parametrize(
    "name", ["+".join(["bp"] * 200), "+".join(["por_i(100)"] * 24), "sum(bp,bp+bp+bp+bp)"]
)
def test_sum_bound(name):
    """The summands are counted in the name, before any sum is built."""
    start = time.perf_counter()
    with pytest.raises(FormatError, match=f"summands above sum bound {zoo.SUM_BOUND}"):
        zoo.make(name)
    assert time.perf_counter() - start < 1


def test_sum_bound_is_accepted():
    four = zoo.make("sum(bp,ttdet)+det+lsand")
    assert four == fn_sum(fn_sum(fn_sum(zoo.bp(), zoo.ttdet()), zoo.det()), zoo.left_strict_and())


@pytest.mark.parametrize(
    "name",
    ["gustave_i(101)", "bg(101,1)", "por_i(99999999999999999999)",
     "ntdet(99999999999999999999)", "gustave_i(99999999999999999999)"],
)
def test_family_parameter_bound(name):
    with pytest.raises(FormatError, match=f"parameter [0-9]+ above bound {zoo.PARAM_BOUND}"):
        zoo.make(name)


def test_family_parameter_bound_is_accepted():
    assert zoo.ntdet(zoo.PARAM_BOUND).arity == zoo.PARAM_BOUND
    assert zoo.bivalued_gustave(zoo.PARAM_BOUND, zoo.PARAM_BOUND).arity == 2 * zoo.PARAM_BOUND + 1


def test_catalog_arity_filter():
    assert all(fn.arity <= 3 for fn in zoo.catalog(max_arity=3))
    names = [fn.name for fn in zoo.catalog()]
    assert len(names) == len(set(names))


def test_zoo_self_test_passes():
    results = verify_zoo_invariants()
    failures = [r for r in results if not r.passed]
    assert not failures, failures
