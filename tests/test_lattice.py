"""Order and coherence laws on the flat domain, checked exhaustively at
small arity and by hypothesis at arity 3.  The order and compatibility
written out by definition here are the oracles the trace tests use."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parlevel import (
    BOT,
    ArityMismatchError,
    Tri,
    TriTuple,
    is_coherent,
    leq,
)

tri = st.sampled_from([Tri.BOT, Tri.TT, Tri.FF])


def tuples_of(arity: int):
    return st.lists(tri, min_size=arity, max_size=arity).map(
        lambda vs: TriTuple(tuple(vs))
    )


def t(text: str) -> TriTuple:
    return TriTuple.from_text(text)


def all_tuples(arity: int) -> list[TriTuple]:
    """All 3^k tuples of the given arity, in base-3 code order."""
    return [TriTuple.decode(code, arity) for code in range(3**arity)]


def oracle_leq(x: TriTuple, y: TriTuple) -> bool:
    """The pointwise flat order: each coordinate of x is undefined or
    equal to y's."""
    return all(a == BOT or a == b for a, b in zip(x.entries, y.entries))


def oracle_compatible(x: TriTuple, y: TriTuple) -> bool:
    """Compatibility by definition: some tuple lies above both."""
    return any(oracle_leq(x, z) and oracle_leq(y, z) for z in all_tuples(x.arity))


def bot_covering(rows) -> bool:
    """Every coordinate is undefined in some row; no row covers nothing."""
    return bool(rows) and all(
        any(r.entries[c] == BOT for r in rows) for c in range(rows[0].arity)
    )


def test_leq_examples():
    assert leq(t("_T"), t("FT"))
    assert not leq(t("T"), t("F"))
    assert leq(t("TF"), t("TF"))


def test_leq_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        leq(t("T"), t("TT"))


def test_leq_equals_oracle_arity2():
    for x, y in itertools.product(all_tuples(2), repeat=2):
        assert leq(x, y) == oracle_leq(x, y)


def test_leq_is_partial_order_arity2():
    pts = list(all_tuples(2))
    for x in pts:
        assert leq(x, x)
    for x, y in itertools.product(pts, repeat=2):
        if leq(x, y) and leq(y, x):
            assert x == y
    for x, y, z in itertools.product(pts, repeat=3):
        if leq(x, y) and leq(y, z):
            assert leq(x, z)


@given(tuples_of(3), tuples_of(3), tuples_of(3))
def test_leq_transitive_arity3(x, y, z):
    if leq(x, y) and leq(y, z):
        assert leq(x, z)


def test_compatible_examples():
    # two rows of the classic stable three-row trace are not compatible
    for x, y, want in (("_T", "F_", True), ("_TF", "TF_", False), ("TF", "TF", True)):
        assert oracle_compatible(t(x), t(y)) == want
        assert is_coherent([t(x), t(y)]) == want


def test_coherence_examples():
    assert is_coherent([t("_TF"), t("TF_"), t("F_T")])
    assert not is_coherent([t("T"), t("F")])
    assert is_coherent([])
    assert is_coherent([t("TF")])


def test_coherence_not_subset_closed():
    whole = [t("_"), t("T"), t("F")]
    assert is_coherent(whole)
    assert not is_coherent([t("T"), t("F")])


def test_pair_coherence_is_compatibility():
    for arity in (1, 2, 3):
        for x, y in itertools.product(all_tuples(arity), repeat=2):
            assert is_coherent([x, y]) == oracle_compatible(x, y)


def test_bot_covering_examples():
    rows = [t("_TF"), t("TF_"), t("F_T")]
    assert bot_covering(rows) and is_coherent(rows)
    assert not bot_covering([t("T_"), t("TT")])
    assert not bot_covering([])


def test_bot_covering_implies_coherent_exhaustive_arity2():
    pts = list(all_tuples(2))
    for size in range(1, 4):
        for subset in itertools.combinations(pts, size):
            if bot_covering(subset):
                assert is_coherent(subset)


@given(st.lists(tuples_of(3), min_size=1, max_size=5))
def test_bot_covering_implies_coherent_random_arity3(rows):
    if bot_covering(rows):
        assert is_coherent(rows)


def test_encode_decode_roundtrip():
    for arity in (1, 2, 3):
        for x in all_tuples(arity):
            assert TriTuple.decode(x.encode(), arity) == x


def test_text_roundtrip():
    for x in all_tuples(3):
        assert TriTuple.from_text(x.text) == x


def test_arity_zero_rejected():
    with pytest.raises(ArityMismatchError):
        TriTuple(())
    with pytest.raises(ArityMismatchError):
        TriTuple.decode(0, 0)


def test_meet_is_glb():
    for x, y in itertools.product(all_tuples(2), repeat=2):
        m = x.meet(y)
        assert leq(m, x) and leq(m, y)
        for z in all_tuples(2):
            if leq(z, x) and leq(z, y):
                assert leq(z, m)
