"""Relation membership, brute-force invariance with witnesses,
canonicalization, chains, and the separating-relation search."""

from __future__ import annotations

import collections
import dataclasses
import functools
import inspect
import itertools
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import parlevel
import parlevel.relations as relations

from parlevel import (
    ArityMismatchError,
    BoundExceededError,
    BudgetExceededError,
    DEFAULT_CONFIG,
    FormatError,
    INF,
    InvarianceWitness,
    PLevel,
    PreseqRel,
    SeqRel,
    SoundnessError,
    TraceEntry,
    TriTuple,
    canonical_equal,
    canonical_strict,
    canonicalize,
    chain_relation,
    compare,
    enumerate_monotone,
    find_separating_relation,
    fn_sum,
    format_relation,
    invariance_counterexample,
    is_invariant,
    level_separator,
    p_level,
    parse_relation,
    parse_relation_file,
    trace_from_table,
    validate_trace,
    zoo,
)
from parlevel.errors import state_figure
from parlevel.lattice import BOT, Tri
from parlevel.functions import monotone_tables, table_of
from parlevel.relations import CHUNK, basic_members, member_matrix, symmetry_classes
from test_degree_table import NAMES
from test_plevels import random_traces


def t(text: str) -> TriTuple:
    return TriTuple.from_text(text)


def rel(n, a, b) -> PreseqRel:
    return PreseqRel(n, frozenset(a), frozenset(b))


def conjuncts_of(relation) -> tuple[PreseqRel, ...]:
    return relation.conjuncts if isinstance(relation, SeqRel) else (relation,)


def oracle_rule(relation):
    """Membership from the definition, as a test on one tuple's entries:
    in every conjunct, some A-coordinate is undefined or all
    B-coordinates agree."""
    index_sets = [
        ([i - 1 for i in c.a], [i - 1 for i in c.b]) for c in conjuncts_of(relation)
    ]
    return lambda entries: all(
        BOT in [entries[i] for i in a] or len({entries[i] for i in b}) <= 1
        for a, b in index_sets
    )


def oracle_listing(relation) -> list[tuple[Tri, ...]]:
    """Members one tuple at a time; itertools.product over (_, T, F)
    walks the tuples in base-3 code order."""
    member = oracle_rule(relation)
    return [e for e in itertools.product(Tri, repeat=relation.n) if member(e)]


def oracle_counterexample(fn, relation) -> InvarianceWitness | None:
    """The first selection of member rows, in lexicographic order, whose
    columnwise image under fn leaves the relation."""
    member = oracle_rule(relation)
    image = functools.cache(lambda column: fn.eval(TriTuple(column)))
    for rows in itertools.product(oracle_listing(relation), repeat=fn.arity):
        output = tuple(image(column) for column in zip(*rows))
        if not member(output):
            return InvarianceWitness(
                relation, tuple(map(TriTuple, rows)), TriTuple(output)
            )
    return None


def all_basic_relations(max_arity: int) -> list[PreseqRel]:
    return [
        rel(n, a, b)
        for n in range(1, max_arity + 1)
        for b_size in range(n + 1)
        for b in itertools.combinations(range(1, n + 1), b_size)
        for a_size in range(b_size + 1)
        for a in itertools.combinations(b, a_size)
    ]


@st.composite
def basic_relations(draw, n: int) -> PreseqRel:
    """B leaves out at most one index and A at most one index of B, so
    the large index sets, the only ones a small function can break, come
    up often."""
    b = set(range(1, n + 1)) - draw(st.sets(st.integers(1, n), max_size=1))
    a = b - draw(st.sets(st.integers(1, n), max_size=1))
    return rel(n, a, b)


@st.composite
def small_relations(draw):
    """A basic relation of arity <= 3, or an intersection of two.  Arity
    3, where the witnesses are, is drawn half the time."""
    n = draw(st.sampled_from((3, 3, 2, 1)))
    first = draw(basic_relations(n))
    if draw(st.booleans()):
        return first
    return SeqRel((first, draw(basic_relations(n))))


def test_member_examples():
    r = rel(2, {1}, {1, 2})
    assert r.member(t("_T"))
    assert not r.member(t("TF"))
    universal = rel(3, set(), set())
    for code in range(27):
        assert universal.member(TriTuple.decode(code, 3))


def test_member_requires_matching_arity():
    with pytest.raises(ArityMismatchError):
        rel(2, {1}, {1, 2}).member(t("TTT"))
    with pytest.raises(ArityMismatchError):
        chain_relation(3).member(t("TT"))


def test_relation_validation():
    with pytest.raises(FormatError):
        rel(2, {1, 2}, {1})  # A not inside B
    with pytest.raises(FormatError):
        rel(2, {1}, {1, 3})  # B outside 1..n
    with pytest.raises(Exception):
        rel(0, set(), set())


def test_index_check_builds_nothing_of_size_n():
    """B's indices are compared with 1 and n, so a 10^12-ary line
    parses at once."""
    n = 10**12
    r = parse_relation(f"preseq n={n} A=1 B=1,{n}")
    assert r == rel(n, {1}, {1, n})
    with pytest.raises(FormatError, match="B must fit"):
        parse_relation(f"preseq n={n} A= B=0")


def test_seqrel_membership_is_conjunction():
    r = chain_relation(3)
    for code in range(27):
        d = TriTuple.decode(code, 3)
        assert r.member(d) == all(c.member(d) for c in r.conjuncts)


def test_member_matrix_equals_per_tuple_listing():
    """chain_relation(12) has 3^12 codes, more than one CHUNK."""
    assert 3**12 > CHUNK
    small = all_basic_relations(4) + [chain_relation(j) for j in range(2, 7)]
    for r in small + [chain_relation(12)]:
        assert list(map(tuple, member_matrix(r).tolist())) == oracle_listing(r), r
    for r in small:
        tuples = [TriTuple(entries) for entries in itertools.product(Tri, repeat=r.n)]
        mask = r.mask(np.array([d.entries for d in tuples], dtype=np.int8).T)
        assert mask.tolist() == [r.member(d) for d in tuples], r


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(random_traces(arities=(1, 2, 3)), st.sampled_from(zoo.catalog(max_arity=3))),
    small_relations(),
)
def test_invariance_search_equals_definition_oracle(fn, relation):
    """Catalog functions join the random traces because few of those are
    non-sequential, and only non-sequential functions have witnesses."""
    assert invariance_counterexample(fn, relation) == oracle_counterexample(fn, relation)


# functions with witnesses under arity-3 relations: the catalog's, most
# of them symmetric or cyclic in their arguments, and the 34 binary
# monotone functions of finite level, 20 of them not symmetric, so that
# a kernel that mixes up its slots gives another witness
NON_SEQUENTIAL = zoo.catalog(max_arity=3) + [
    fn for fn in enumerate_monotone(2) if p_level(fn).j != INF
]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(NON_SEQUENTIAL),
    st.one_of(
        basic_relations(3),
        st.builds(lambda a, b: SeqRel((a, b)), basic_relations(3), basic_relations(3)),
    ),
    st.sampled_from((7, 50)),
)
def test_kernel_blocks_split_mid_selection(fn, relation, chunk):
    """With CHUNK below a level's cells (states x members x n), the
    level runs in several blocks: part of one state's row of members
    (CHUNK < m*n, as at CHUNK 7, and at CHUNK 50 for the arity-3
    relations that give witnesses, with 17 or 21 members), or the whole
    rows of a few states.  `test_oracle_searches_split_levels_across_blocks`
    checks that merged levels split too.  The memo is cleared so that
    the search runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, "CHUNK", chunk)
        relations._first_counterexample.cache_clear()
        found = invariance_counterexample(fn, relation)
    assert found == oracle_counterexample(fn, relation)


def test_kernel_memory_is_a_few_blocks():
    """ntdet(1) under two universal relations of arity 12: a 6 MB member
    matrix of 3^12 rows.  With A = B = {} the twelve coordinates form
    one class and the kernel visits the 91 sorted rows.  The seqrel
    puts each coordinate in a class of its own, so all 3^12 rows are
    first picks: the kernel holds their int8 columns and a few
    CHUNK-sized blocks (9 MiB at peak), not intp copies of the members
    or of the table, which take 103 MiB here.  The binary ttdet under
    the universal relation of arity 11 walks its 78 first-pick states
    against all 3^11 rows, 152M cells in all, at the same bound."""
    asymmetric = "seqrel n=12 " + " ".join(f"{{A= B={i}}}" for i in range(1, 12))
    wide = dataclasses.replace(DEFAULT_CONFIG, budget=3**22)
    searches = [
        (zoo.make("ntdet(1)"), parse_relation("preseq n=12 A= B="), DEFAULT_CONFIG),
        (zoo.make("ntdet(1)"), parse_relation(asymmetric), DEFAULT_CONFIG),
        (zoo.make("ttdet"), parse_relation("preseq n=11 A= B="), wide),
    ]
    for fn, r, config in searches:
        member_matrix(r)
        relations._first_counterexample.cache_clear()
        tracemalloc.start()
        try:
            assert invariance_counterexample(fn, r, config) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20, r


def unpruned_counterexamples(fns, relation) -> list[InvarianceWitness | None]:
    """The broadcast kernel without symmetry pruning, as an oracle, for
    functions of one arity k: all m^k selections in lexicographic order,
    at most CHUNK a block, the last s picks (the most with m^s <= CHUNK)
    a precomputed outer sum and the first k - s decoded block by block.
    Each block's column codes are built once and looked up in every
    function's table that has no witness yet."""
    mem = member_matrix(relation)
    (k,) = {fn.arity for fn in fns}
    m, n = len(mem), relation.n
    s = 0
    while s < k and m ** (s + 1) <= relations.CHUNK:
        s += 1
    suffix = np.zeros((n, 1), dtype=np.intp)
    for t in range(k - s, k):
        weight = np.multiply(mem.T[:, None, :], 3 ** (k - 1 - t), dtype=np.intp)
        suffix = (suffix[:, :, None] + weight).reshape(n, -1)
    width = suffix.shape[1]
    prefixes = m ** (k - s)
    step = relations.CHUNK // width
    found: list[InvarianceWitness | None] = [None] * len(fns)
    open_ = list(range(len(fns)))
    for start in range(0, prefixes, step):
        rest = np.arange(start, min(start + step, prefixes))
        prefix = np.zeros((n, len(rest)), dtype=np.intp)
        for t in range(k - s - 1, -1, -1):
            rest, pick = np.divmod(rest, m)
            prefix += np.multiply(mem[pick].T, 3 ** (k - 1 - t), dtype=np.intp)
        codes = [(p[:, None] + q).ravel() for p, q in zip(prefix, suffix)]
        for i in list(open_):
            table = table_of(fns[i])
            out = [table[c] for c in codes]
            good = relation.mask(out)
            if good.all():
                continue
            bad = int(np.argmin(good))
            index = start * width + bad
            picks = []
            for _ in range(k):
                index, pick = divmod(index, m)
                picks.append(pick)
            found[i] = InvarianceWitness(
                relation,
                tuple(TriTuple(tuple(map(Tri, row.tolist()))) for row in mem[picks[::-1]]),
                TriTuple(tuple(Tri(int(col[bad])) for col in out)),
            )
            open_.remove(i)
        if not open_:
            break
    return found


def residual_table(fn) -> np.ndarray:
    """fn's output at every input code, walked through `_residuals` one
    trit at a time from the root subfunction."""
    ids = np.zeros(3**fn.arity, dtype=np.intp)
    for trans, trits in zip(relations._residuals(fn), np.indices((3,) * fn.arity)):
        ids = trans[3 * ids + trits.ravel()]
    return ids


def test_residuals_reproduce_the_table():
    """Every monotone function of arity <= 2, a seeded sample of arity
    3 and the catalog: walking the residual ids gives `table_of` at
    every input code, and a level's ids fit its dtype."""
    tables = monotone_tables(3)
    rows = random.Random(33).sample(range(len(tables)), 300)
    sample = [trace_from_table(3, tables[i]) for i in rows]
    for fn in [*enumerate_monotone(1), *enumerate_monotone(2), *sample, *zoo.catalog()]:
        residuals = relations._residuals(fn)
        assert residual_table(fn).tolist() == table_of(fn).tolist(), fn
        assert len(residuals[0]) == 3 and residuals[-1].max() <= 2, fn
        for trans, children in zip(residuals, residuals[1:]):
            assert trans.max() < len(children) // 3 <= np.iinfo(trans.dtype).max + 1, fn


@pytest.mark.parametrize("chunk", (7, 50))
def test_residuals_merge_sorted_keys_across_blocks(chunk):
    """At CHUNK 7 and 50 the levels `_residuals` ranks by sorted keys
    (more possible keys than prefixes) run in several blocks, each
    merged into the keys found so far, on the seeded arity-3 sample and
    the all-total arity-8 trace: the ids and their dtypes are those of
    the default CHUNK, where every level is one block."""
    tables = monotone_tables(3)
    rows = random.Random(33).sample(range(len(tables)), 300)
    fns = [*(trace_from_table(3, tables[i]) for i in rows), all_total_arity8()]
    split = 0
    for fn in fns:
        expected = relations._residuals.__wrapped__(fn)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(relations, "CHUNK", chunk)
            got = relations._residuals.__wrapped__(fn)
        assert [a.dtype for a in got] == [a.dtype for a in expected], fn
        assert [a.tolist() for a in got] == [a.tolist() for a in expected], fn
        # level t has 3^t prefixes and ids below b = its children's count
        bases = [len(trans) // 3 for trans in expected[1:]] + [int(table_of(fn).max()) + 1]
        split += any(b**3 > 3**t > chunk for t, b in enumerate(bases))
    assert split == {7: 264, 50: 1}[chunk]


def run_fresh(script: str) -> None:
    """Run `script` in a fresh interpreter that imports this parlevel."""
    src = str(Path(parlevel.__file__).resolve().parent.parent)
    paths = (src, os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_a_cold_compare_imports_no_numpy_ma():
    """`np.unique` and `np.union1d` import `numpy.ma` on first use, about
    18 ms in a fresh process.  A cold compare, and an invariance search
    whose `_residuals` ranks keys by the sorted merge, import none of
    it beyond what `import numpy` does (all of it under numpy 1)."""
    run_fresh(
        textwrap.dedent(
            """
            import sys
            import numpy as np
            numpy_ma = "numpy.ma" in sys.modules
            import parlevel
            from parlevel import canonical_equal, compare, invariance_counterexample, zoo
            compare(zoo.make("por_i(2)"), zoo.make("por_i(3)"))
            ranked = []
            searchsorted = np.searchsorted
            np.searchsorted = lambda *args: ranked.append(args) or searchsorted(*args)
            invariance_counterexample(zoo.make("bg(2,1)"), canonical_equal(3))
            assert ranked, "no level of _residuals took the sorted branch"
            assert numpy_ma or "numpy.ma" not in sys.modules
            """
        )
    )


def test_two_word_keys_import_no_numpy_ma():
    """States of the 14-ary relation below take two-word keys under the
    all-total arity-8 trace (`test_wide_states_match_the_oracle`), and at
    CHUNK 7 each level spans many blocks, so every block after the first
    is looked up in the sorted keys kept before it.  `np.isin` took numpy's
    sort path for such keys and imported `numpy.ma`; the search imports
    none of it.  The relation is listed at the default CHUNK first, as
    listing 3^14 tuples 7 at a time takes half a minute."""
    run_fresh(
        textwrap.dedent(
            """
            import itertools, random, sys
            import numpy as np
            numpy_ma = "numpy.ma" in sys.modules
            from parlevel import TraceEntry, TriTuple, parse_relation, validate_trace
            from parlevel import relations
            from parlevel.lattice import Tri
            """
        )
        + textwrap.dedent(inspect.getsource(all_total_arity8))
        + textwrap.dedent(
            """
            relation = parse_relation(
                "seqrel n=14 {A= B=2,3,4,5,6,7,8,9,10,11,12,13,14} {A=1 B=1,2}"
            )
            relations.member_matrix(relation)
            relations.CHUNK = 7
            keys = []
            first_states = relations._first_states
            def spy(states, count, seen):
                keys.append(relations._state_keys(states, count).dtype.names)
                return first_states(states, count, seen)
            relations._first_states = spy
            assert relations._first_counterexample(all_total_arity8(), relation) is None
            assert ("w0", "w1") in keys, "no level took two-word keys"
            assert numpy_ma or "numpy.ma" not in sys.modules
            """
        )
    )


def test_residual_counts():
    """Distinct subfunctions per level, from fn itself at level 0 down
    to the functions of one argument."""
    counts = {"bp+ttdet": [1, 3, 5, 7], "bg(2,1)": [1, 3, 5, 6, 6], "ntdet(3)": [1, 2, 2]}
    for name, expected in counts.items():
        assert [len(trans) // 3 for trans in relations._residuals(zoo.make(name))] == expected


def check_last_level(fn) -> int:
    """The last level's subfunctions are monotone in their one argument:
    each is its output triple at (BOT, TT, FF), BOT at BOT or constant.
    There are 11 such (9 with BOT at BOT, 2 constants), so `trans` has
    at most 33 entries and the kernel's output table at most 11 rows a
    column.  Returns the count."""
    triples = relations._residuals(fn)[-1].reshape(-1, 3)
    assert ((triples[:, 0] == 0) | (triples == triples[:, :1]).all(axis=1)).all(), fn
    assert len(triples) <= 11, fn
    return len(triples)


def test_last_level_has_at_most_eleven_subfunctions():
    """Every function of arity <= 2, the catalog up to arity 8 and the
    all-total arity-8 trace: the most seen is 7, in bg(2,2)."""
    fns = [*enumerate_monotone(1), *enumerate_monotone(2), *zoo.catalog(max_arity=8)]
    assert max(check_last_level(fn) for fn in [*fns, all_total_arity8()]) == 7


@settings(max_examples=50, deadline=None)
@given(random_traces(arities=(1, 2, 3, 4, 5, 6)))
def test_random_last_levels_have_at_most_eleven_subfunctions(fn):
    check_last_level(fn)


def test_last_level_memory_is_the_output_table():
    """gustave_i(1) under canonical_equal(5): 494 states times 213
    members at the last level.  Its blocks copy whole rows of a 5 x 5 x
    213 int8 output table, indexed by 5 x 494 ids, so the search peaks
    near 0.6 MiB; one intp index per cell (5 x 494 x 213) takes 4.7 MiB."""
    fn, relation = zoo.make("gustave_i(1)"), canonical_equal(5)
    member_matrix(relation)
    relations._residuals(fn)
    relations._class_order(relation)
    tracemalloc.start()
    try:
        assert relations._first_counterexample.__wrapped__(fn, relation) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_state_keys_cannot_collide():
    """Fourteen ids below 29 overflow an int64 read as base-29 digits:
    the digits of 2^64 would wrap to the key of the zero state.  The
    kernel's keys keep the two states apart and find each one first
    where it first occurs."""
    digits, rest = [], 2**64
    while rest:
        rest, digit = divmod(rest, 29)
        digits.append(digit)
    wrapped = np.array(digits[::-1], dtype=np.int8)
    assert len(wrapped) == 14 and 29**14 > 2**63
    weights = 29 ** np.arange(13, -1, -1, dtype=np.uint64)
    assert int(np.dot(weights, wrapped.astype(np.uint64))) == 0  # a 64-bit sum wraps
    states = np.stack([wrapped, np.zeros(14, dtype=np.int8), wrapped, wrapped[::-1]], axis=1)
    keys = relations._state_keys(states, 29)
    assert keys.dtype.names == ("w0", "w1") and keys[0] != keys[1] and keys[0] == keys[2]
    first, seen = relations._first_states(states, 29, None)
    assert first.tolist() == [0, 1, 3] and seen.tolist() == sorted(set(keys.tolist()))
    first, seen = relations._first_states(states[:, ::-1], 29, seen)
    assert first.tolist() == [] and len(seen) == 3


def all_total_arity8():
    """A seeded trace of arity 8 defined on the total inputs only."""
    rng = random.Random(0)
    total = itertools.product((Tri.TT, Tri.FF), repeat=8)
    entries = [TraceEntry(TriTuple(x), rng.choice((Tri.TT, Tri.FF))) for x in total]
    return validate_trace(8, entries)


def test_wide_states_match_the_oracle():
    """A seeded all-total trace of arity 8 has 29 subfunctions at level
    5, and a state of a 14-ary relation is then 14 ids whose base-29
    reading passes 2^63, so the keys take two words: the search agrees
    with the unpruned oracle (None: a function defined only on total
    inputs is strict in every argument)."""
    fn = all_total_arity8()
    assert [len(trans) // 3 for trans in relations._residuals(fn)] == [1, 3, 5, 9, 17, 29, 17, 5]
    relation = parse_relation("seqrel n=14 {A= B=2,3,4,5,6,7,8,9,10,11,12,13,14} {A=1 B=1,2}")
    assert len(member_matrix(relation)) == 5
    assert [relations._first_counterexample.__wrapped__(fn, relation)] == unpruned_counterexamples(
        [fn], relation
    )


class SortLog:
    """numpy, with the size of the arrays handed to each routine that
    sorts them logged in `sizes`."""

    SORTS = ("sort", "argsort", "lexsort", "unique", "isin", "union1d")

    def __init__(self):
        self.sizes: list[int] = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.SORTS:
            return attr

        def logged(*args, **kwargs):
            self.sizes.append(sum(np.size(a) for a in args if isinstance(a, np.ndarray)))
            return attr(*args, **kwargs)

        return logged


@pytest.mark.parametrize("chunk", (7, 50))
def test_oracle_searches_split_levels_across_blocks(chunk):
    """At the CHUNKs of the oracle tests above, the merged levels of the
    arity-3 non-sequential functions under the arity-3 families run in
    more than one block (`_first_states` is called once a block), and a
    state first met in one block is dropped when it recurs in a later
    one: the searches keep as many states as at the default CHUNK, where
    each level is one block, and their witnesses stay the oracle's.
    After each block `seen` is the sorted keys of exactly the states the
    level has kept, and no sort in `_first_states` is handed more than
    the block's keys, so `seen` is never sorted again."""
    fns = [fn for fn in NON_SEQUENTIAL if fn.arity == 3]
    searches = 0
    for relation in (canonical_equal(3), canonical_strict(2), chain_relation(3)):
        for fn in fns:
            sizes = [len(trans) for trans in relations._residuals(fn)]
            merged = sum(size > below // 3 for size, below in zip(sizes[1:-1], sizes[2:]))
            kept = {}
            for size in (chunk, CHUNK):
                kept[size] = []
                held: list[np.ndarray] = []  # keys of the states the level has kept
                sorts = SortLog()

                def spy(states, count, seen, real=relations._first_states, log=kept[size]):
                    sorts.sizes.clear()
                    first, seen_after = real(states, count, seen)
                    assert sorts.sizes and max(sorts.sizes) <= states.shape[1]
                    if seen is None:
                        held.clear()
                    held.append(relations._state_keys(states[:, first], count))
                    assert np.array_equal(seen_after, np.sort(np.concatenate(held)))
                    assert (seen_after[1:] > seen_after[:-1]).all()
                    log.append(len(first))
                    return first, seen_after

                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(relations, "CHUNK", size)
                    patch.setattr(relations, "_first_states", spy)
                    patch.setattr(relations, "np", sorts)
                    found = relations._first_counterexample.__wrapped__(fn, relation)
                assert found == oracle_counterexample(fn, relation), (fn, relation)
            assert len(kept[CHUNK]) == merged and len(kept[chunk]) > merged, (fn, relation)
            assert sum(kept[chunk]) == sum(kept[CHUNK]), (fn, relation)
            searches += bool(merged)
    assert searches == 15


def test_symmetry_classes_of_the_families():
    for m in range(1, 6):
        assert symmetry_classes(canonical_equal(m)) == (tuple(range(1, m + 1)),)
        assert symmetry_classes(canonical_strict(m)) == (tuple(range(1, m + 1)), (m + 1,))
    for j in range(2, 7):
        singles = tuple((i,) for i in range(3, j + 1))
        assert symmetry_classes(chain_relation(j)) == ((1, 2), *singles)
    assert symmetry_classes(parse_relation("preseq n=12 A= B=")) == (tuple(range(1, 13)),)
    assert symmetry_classes(rel(3, {3}, {2, 3})) == ((1,), (2,), (3,))


def test_swapping_two_coordinates_of_a_class_keeps_the_members():
    """The classes partition 1..n, and swapping two coordinates of one
    class maps the member listing onto itself as a set."""
    for r in all_basic_relations(4) + [chain_relation(j) for j in range(2, 7)]:
        classes = symmetry_classes(r)
        assert sorted(itertools.chain(*classes)) == list(range(1, r.n + 1)), r
        mem = member_matrix(r)
        members = set(map(tuple, mem.tolist()))
        for c in classes:
            for a, b in itertools.combinations(c, 2):
                order = list(range(r.n))
                order[a - 1], order[b - 1] = b - 1, a - 1
                assert set(map(tuple, mem[:, order].tolist())) == members, (r, a, b)


def test_pruned_kernel_finds_the_unpruned_witness_on_every_small_pair():
    """Every monotone function of arity <= 2 and every catalog function
    of arity <= 3, against every basic relation of arity <= 4 and the
    chain pool: the kernel, which walks residual states from first
    picks sorted within each symmetry class, returns the first witness
    of all selections, or None with it."""
    fns = [*enumerate_monotone(1), *enumerate_monotone(2), *zoo.catalog(max_arity=3)]
    found = 0
    for relation in all_basic_relations(4) + list(relations.CHAIN_POOL):
        for k in (1, 2, 3):
            group = [fn for fn in fns if fn.arity == k]
            for fn, expected in zip(group, unpruned_counterexamples(group, relation)):
                witness = relations._first_counterexample.__wrapped__(fn, relation)
                assert witness == expected, (fn, relation)
                found += witness is not None
    assert (len(fns), found) == (219, 1108)


SEARCH_LIMIT = 10_000  # selections per example: 1,430 blocks at CHUNK 7
# canonical_equal(2) is left out: every monotone function respects it
SYMMETRIC_FAMILIES = (
    [canonical_equal(m) for m in range(3, 6)]
    + [canonical_strict(m) for m in range(2, 5)]
    + [chain_relation(j) for j in range(3, 6)]
)


@functools.cache
def two_conjunct_relations(k: int) -> list[SeqRel]:
    """The intersections of two arity-4 basic relations that have a
    class of two or more coordinates and m^k <= SEARCH_LIMIT, counted
    without listing them through the member_matrix cache."""
    tuples = np.indices((3,) * 4).reshape(4, -1)
    basic = [r for r in all_basic_relations(4) if r.n == 4]
    pairs = [SeqRel(pair) for pair in itertools.combinations(basic, 2)]
    return [
        r for r in pairs
        if np.count_nonzero(r.mask(tuples)) ** k <= SEARCH_LIMIT
        and max(map(len, symmetry_classes(r))) >= 2
    ]


@st.composite
def symmetric_searches(draw):
    """A random arity-3/4 trace, or a function with witnesses, and a
    relation with a class of two or more coordinates whose m^k
    selections the unpruned kernel walks at a small CHUNK: of the
    families, canonical_equal(4) to chain4 (55 to 67 members) only
    for a binary function, canonical_equal(5) to chain5 (163 to 213)
    never, as the sweep above and the golden cells below search them."""
    fn = draw(st.one_of(random_traces(arities=(3, 4)), st.sampled_from(NON_SEQUENTIAL)))
    families = [r for r in SYMMETRIC_FAMILIES if len(member_matrix(r)) ** fn.arity <= SEARCH_LIMIT]
    pools = [st.sampled_from(two_conjunct_relations(fn.arity))]
    if families:  # none fits an arity-4 function
        pools.append(st.sampled_from(families))
    return fn, draw(st.one_of(pools))


@settings(max_examples=40, deadline=None)
@given(symmetric_searches(), st.sampled_from((7, 50)))
@example(search=(zoo.bp(), canonical_equal(3)), chunk=7)
@example(search=(zoo.make("ntdet(3)"), canonical_strict(2)), chunk=50)
@example(search=(zoo.por(2), canonical_equal(4)), chunk=50)
@example(
    search=(zoo.bp(), parse_relation("seqrel n=4 {A= B=1,3} {A=1,2,3,4 B=1,2,3,4}")), chunk=7
)
@example(
    search=(zoo.por(3), parse_relation("seqrel n=4 {A=4 B=1,2,3,4} {A=1,2,3 B=1,2,3,4}")), chunk=50
)
@example(search=(zoo.make("ntdet(3)"), canonical_strict(2)), chunk=7)
def test_pruned_kernel_finds_the_unpruned_witness_across_blocks(search, chunk):
    """At CHUNK 7 a block holds part of one state's row of members, at
    CHUNK 50 the row or the rows of a few states, so a level's states
    cross from one block to the next.  Few random traces have
    witnesses; the examples are functions that do, the third to fifth
    have first witnesses with two columns of a class equal over a
    prefix of picks, and the last one's first bad output row is the
    second of the fifth two-member slice of its state's row (last pick
    9 of 17), so the last level's output table is read at a column
    offset."""
    fn, relation = search
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, "CHUNK", chunk)
        found = relations._first_counterexample.__wrapped__(fn, relation)
        assert [found] == unpruned_counterexamples([fn], relation)


GOLDEN_CELLS = {
    "gustave_i(1)|bg(2,1)": (
        "incomparable",
        [
            {
                "relation": "preseq n=4 A=1,2,3 B=1,2,3,4",
                "witness_inputs": ["_TF_", "TF__", "F_T_"],
                "witness_output": "TTT_",
                "invariant_side": {"function": "bg(2,1)", "method": "level", "states": 714924299},
            },
            {
                "relation": "preseq n=5 A=1,2,3,4,5 B=1,2,3,4,5",
                "witness_inputs": ["_TTFF", "TFF_T", "F_TTF", "TTFF_", "FF_TT"],
                "witness_output": "FTTTT",
                "invariant_side": {"function": "gustave_i(1)", "method": "brute", "states": 9663597},
            },
        ],
        [
            "preseq n=4 A=1,2,3 B=1,2,3,4: invariant side skipped (invariance check needs "
            "714924299 states, budget allows 100000000), justified by level instead",
        ],
    ),
    "bp+ttdet|por_i(3)": (
        "incomparable",
        [
            {
                "relation": "preseq n=3 A=1,2,3 B=1,2,3",
                "witness_inputs": ["TTT", "_TF", "TF_", "F_T"],
                "witness_output": "TFF",
                "invariant_side": {"function": "por_i(3)", "method": "brute", "states": 9261},
            },
            {
                "relation": "seqrel n=4 {A=1,2 B=1,2} {A=1,2,3 B=1,2,3} {A=1,2,3,4 B=1,2,3,4}",
                "witness_inputs": ["_TTF", "T_TF", "TT_F"],
                "witness_output": "TTTF",
                "invariant_side": {"function": "sum(bp,ttdet)", "method": "brute", "states": 9150625},
            },
        ],
        [],
    ),
    "bg(2,1)|por_i(2)": (
        "left_below_strict",
        [
            {
                "mapping": [
                    ["_TFTF -> F", "FF -> F"], ["TF_TF -> T", "_T -> T"], ["TFTF_ -> T", "_T -> T"],
                    ["F_TFT -> T", "_T -> T"], ["FTF_T -> T", "T_ -> T"],
                ]
            },
            {
                "relation": "preseq n=3 A=1,2,3 B=1,2,3",
                "witness_inputs": ["_TF", "T_F"],
                "witness_output": "TTF",
                "invariant_side": {"function": "bg(2,1)", "method": "brute", "states": 4084101},
            },
        ],
        [],
    ),
    "por_i(2)|gustave_i(2)": (
        "right_below_strict",
        [
            {
                "mapping": [
                    ["_TFTF -> T", "_T -> T"], ["TF_TF -> T", "_T -> T"], ["TFTF_ -> T", "_T -> T"],
                    ["F_TFT -> T", "_T -> T"], ["FTF_T -> T", "T_ -> T"],
                ]
            },
            {
                "relation": "preseq n=3 A=1,2,3 B=1,2,3",
                "witness_inputs": ["_TF", "T_F"],
                "witness_output": "TTF",
                "invariant_side": {"function": "gustave_i(2)", "method": "brute", "states": 4084101},
            },
        ],
        [],
    ),
}


@pytest.mark.parametrize("cell", GOLDEN_CELLS)
def test_pruned_cells_keep_their_evidence(cell):
    """The four degree-table cells whose invariant sides the symmetry
    pruning speeds most keep their verdict, evidence and notes, as the
    unpruned kernel gave them, with the memo cleared so that every
    search runs; `states` still counts all m^k selections."""
    left, right = map(zoo.make, cell.split("|"))
    relations._first_counterexample.cache_clear()
    verdict = compare(left, right).to_json_dict()
    assert (
        verdict["relation"], [e["payload"] for e in verdict["evidence"]], verdict["notes"]
    ) == GOLDEN_CELLS[cell]


def test_budget_gate_runs_on_memo_hits():
    """The memo sits behind the budget gate: a pair searched at the
    default budget is still refused at budget 10, with the same error,
    and a pair refused at budget 10 is searched at the default budget."""
    small = dataclasses.replace(DEFAULT_CONFIG, budget=10)
    fn, searched_first, refused_first = zoo.bp(), canonical_equal(3), chain_relation(3)
    relations._first_counterexample.cache_clear()
    with pytest.raises(BudgetExceededError) as cold:
        invariance_counterexample(fn, searched_first, small)
    witness = invariance_counterexample(fn, searched_first)
    assert witness == oracle_counterexample(fn, searched_first)
    with pytest.raises(BudgetExceededError) as hit:
        invariance_counterexample(fn, searched_first, small)
    assert str(hit.value) == str(cold.value)
    assert (hit.value.required, hit.value.allowed) == (21**3, 10)
    assert relations._first_counterexample.cache_info().hits == 0

    with pytest.raises(BudgetExceededError):
        invariance_counterexample(fn, refused_first, small)
    assert invariance_counterexample(fn, refused_first) == oracle_counterexample(
        fn, refused_first
    )
    assert relations._first_counterexample.cache_info().currsize == 2


def test_equal_functions_under_other_names_share_witnesses():
    r = canonical_equal(3)
    fn = zoo.por(2)
    other = fn.renamed("other")
    assert other == fn and other.name != fn.name
    relations._first_counterexample.cache_clear()
    witness = invariance_counterexample(fn, r)
    assert witness is not None and witness.verify(other)
    assert invariance_counterexample(other, r) == witness
    relations._first_counterexample.cache_clear()
    assert invariance_counterexample(other, r) == witness


def test_invariance_examples():
    # the all-true cyclic function respects the strict relation at its level
    assert is_invariant(zoo.gustave(1), rel(3, {1, 2}, {1, 2, 3}))
    # the near-unanimity function of width 2 breaks the equal relation of size 3
    w = invariance_counterexample(zoo.por(2), rel(3, {1, 2, 3}, {1, 2, 3}))
    assert w is not None and w.verify(zoo.por(2))
    # universal relation: everything is invariant
    assert is_invariant(zoo.por(2), rel(4, set(), set()))


def test_every_monotone_fn_respects_the_smallest_relations():
    for fn in zoo.catalog(max_arity=3):
        assert is_invariant(fn, canonical_equal(2))
        assert is_invariant(fn, canonical_strict(1))


def test_witness_is_deterministic():
    r = rel(3, {1, 2, 3}, {1, 2, 3})
    w1 = invariance_counterexample(zoo.por(2), r)
    w2 = invariance_counterexample(zoo.por(2), r)
    assert w1 == w2


def test_witness_replay_machinery():
    r = canonical_strict(2)
    w = invariance_counterexample(zoo.ttdet(), r)
    assert w is not None
    assert w.verify(zoo.ttdet())
    # replay recomputes the columns: a function with other outputs fails
    assert not w.verify(zoo.left_strict_and())
    # and an arity mismatch can never replay
    assert not w.verify(zoo.bp())


def verify_by_member(witness: InvarianceWitness, fn) -> bool:
    """`InvarianceWitness.verify` one tuple at a time, as an oracle:
    `member` on each input row, `fn.eval` on each column, then `member`
    on the output."""
    relation, n = witness.relation, witness.relation.n
    if len(witness.inputs) != fn.arity:
        return False
    if any(t.arity != n for t in witness.inputs) or witness.output.arity != n:
        return False
    if not all(relation.member(t) for t in witness.inputs):
        return False
    cols = [TriTuple(tuple(t.entries[c] for t in witness.inputs)) for c in range(n)]
    computed = TriTuple(tuple(fn.eval(col) for col in cols))
    return computed == witness.output and not relation.member(witness.output)


def degree_table_witnesses() -> list[tuple[object, InvarianceWitness]]:
    """Each function of the degree table with each witness the separator
    search can replay for it: its kernel witness under each relation a
    cell tries (the level separator of the cell, then CHAIN_POOL) within
    the default budget, and its constructed witness under each level
    separator."""
    fns = [zoo.make(name) for name in NAMES]
    separators = {
        level_separator(p_level(f), p_level(g)) for f, g in itertools.product(fns, repeat=2)
    } - {None}
    found = []
    for fn in fns:
        for relation in (*separators, *relations.CHAIN_POOL):
            witnesses = []
            try:
                witnesses.append(invariance_counterexample(fn, relation))
            except (BudgetExceededError, BoundExceededError):
                pass
            if relation in separators:
                witnesses.append(relations.constructed_witness(fn, relation))
            found += [(fn, w) for w in witnesses if w is not None]
    return found


def tampered(witness: InvarianceWitness, fn) -> list[InvarianceWitness]:
    """Copies of the witness with one input trit or one output trit
    flipped, a row of the wrong arity, or a row outside the relation;
    and each copy with an input trit flipped, with its output
    replaced by fn's image of the new rows, which may be a member."""
    relation, inputs, output = witness.relation, witness.inputs, witness.output

    def flip(row: TriTuple, c: int) -> TriTuple:
        entries = list(row.entries)
        entries[c] = Tri((entries[c] + 1) % 3)
        return TriTuple(tuple(entries))

    copies = [
        InvarianceWitness(relation, inputs[:r] + (flip(row, c),) + inputs[r + 1 :], output)
        for r, row in enumerate(inputs)
        for c in range(relation.n)
    ]
    copies += [
        InvarianceWitness(relation, copy.inputs, TriTuple(tuple(
            fn.eval(TriTuple(col)) for col in zip(*(t.entries for t in copy.inputs))
        )))
        for copy in copies
    ]
    copies += [InvarianceWitness(relation, inputs, flip(output, c)) for c in range(relation.n)]
    longer = TriTuple(output.entries + (Tri.TT,))
    copies += [
        InvarianceWitness(relation, (longer, *inputs[1:]), output),
        InvarianceWitness(relation, inputs, longer),
        InvarianceWitness(relation, inputs[:-1], output),
    ]
    outside = next(
        (t for t in map(TriTuple, itertools.product(Tri, repeat=relation.n))
         if not relation.member(t)),
        None,
    )
    if outside is not None:
        copies.append(InvarianceWitness(relation, (outside, *inputs[1:]), output))
    return copies


def test_batched_verify_equals_per_tuple_replay():
    """`verify` tests the k+1 rows in one `mask` call; the per-tuple
    replay gives the same verdict on every kernel and constructed
    witness of the degree table's functions, and on tampered copies."""
    witnesses = degree_table_witnesses()
    assert len(witnesses) > 50
    verdicts = collections.Counter()
    for fn, witness in witnesses:
        assert witness.verify(fn) and verify_by_member(witness, fn)
        for copy in tampered(witness, fn):
            verdict = verify_by_member(copy, fn)
            assert copy.verify(fn) == verdict, (fn, copy)
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_constructed_witness_is_memoized():
    fn, relation = zoo.gustave(1), canonical_strict(3)
    witness = relations.constructed_witness(fn, relation)
    assert witness is not None and witness.verify(fn)
    assert relations.constructed_witness(fn, relation) is witness


def test_constructed_witness_that_does_not_replay_is_unsound(monkeypatch):
    """The memo keeps the replay: with `verify` failing, a construction
    made afresh is refused, and the separator search raises."""
    monkeypatch.setattr(InvarianceWitness, "verify", lambda self, fn: False)
    relations.constructed_witness.cache_clear()
    try:
        with pytest.raises(SoundnessError, match="does not replay"):
            find_separating_relation(zoo.gustave(1), zoo.gustave(2))
    finally:
        relations.constructed_witness.cache_clear()


def test_budget_error_reports_required_and_allowed():
    small = dataclasses.replace(DEFAULT_CONFIG, budget=10)
    with pytest.raises(BudgetExceededError) as exc:
        is_invariant(zoo.bp(), canonical_equal(3), small)
    assert exc.value.allowed == 10
    assert exc.value.required == 21**3


def test_state_figure_writes_long_counts_as_a_power_of_ten():
    assert state_figure(10**4300 - 1) == 10**4300 - 1
    assert state_figure(21**5000) == "~10^6611"
    exc = BudgetExceededError(3**9300, 10**8, what="invariance check")
    assert str(exc) == "invariance check needs ~10^4437 states, budget allows 100000000"
    assert exc.required == 3**9300


def test_basic_members_closed_form():
    for m in range(1, 8):
        assert basic_members(canonical_equal(m)) == 3**m - 2**m + 2
        assert basic_members(canonical_strict(m)) == 3 ** (m + 1) - 3 * 2**m + 2
        for r in (canonical_equal(m), canonical_strict(m)):
            assert basic_members(r) == len(member_matrix(r)), r
    for n in range(1, 5):
        for b_size in range(n + 1):
            for a_size in range(b_size + 1):
                r = rel(n, range(1, a_size + 1), range(1, b_size + 1))
                assert basic_members(r) == len(member_matrix(r)), r


def test_level_route_counts_states_without_enumerating():
    """The level route reports |S^12_{11,12}|^13 states for the invariant
    side without walking the relation's 3^12 tuples."""
    left, right = zoo.gustave(5), zoo.gustave(6)
    start = time.perf_counter()
    verdict = compare(left, right).to_json_dict()
    assert time.perf_counter() - start < 3
    strict = format_relation(canonical_strict(11))
    states = 525299**13
    assert verdict == {
        "relation": "unknown",
        "evidence": [
            {
                "kind": "separation",
                "source": {"name": "gustave_i(5)", "arity": 11,
                           "trace": [str(e) for e in left.entries]},
                "target": {"name": "gustave_i(6)", "arity": 13,
                           "trace": [str(e) for e in right.entries]},
                "payload": {
                    "relation": strict,
                    "witness_inputs": [
                        "_TTTTTFFFFF_", "TFFFFF_TTTT_", "F_TTTTTFFFF_", "TTFFFFF_TTT_",
                        "FF_TTTTTFFF_", "TTTFFFFF_TT_", "FFF_TTTTTFF_", "TTTTFFFFF_T_",
                        "FFFF_TTTTTF_", "TTTTTFFFFF__", "FFFFF_TTTTT_",
                    ],
                    "witness_output": "TTTTTTTTTTT_",
                    "invariant_side": {
                        "function": "gustave_i(6)", "method": "level", "states": states,
                    },
                },
                "verified": True,
            }
        ],
        "notes": [
            "mapping search gustave_i(6) -> gustave_i(5) skipped (mapping search "
            "needs 34522712143931 states, budget allows 100000000)",
            f"{strict}: invariant side skipped (invariance check needs {states} states, "
            "above 2^63), justified by level instead",
            "left not below right established; other direction open",
        ],
    }


def test_relation_enumeration_over_budget_raises_at_once():
    """Only three tuples belong to S^17_{{},{1..17}}, but finding them
    means walking 3^17 tuples, above the default budget and above the
    cell cap: the cap comes first, so no budget would let it run."""
    wide = rel(17, set(), range(1, 18))
    start = time.perf_counter()
    with pytest.raises(BoundExceededError) as exc:
        invariance_counterexample(zoo.bp(), wide)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == "relation enumeration needs 3^17 cells, above cell cap 100000000"


@settings(max_examples=60, deadline=None)
@given(
    budget=st.sampled_from([10**9, 10**12, 10**21, 10**30]),
    k=st.integers(1, 40),
    # a listing of 3^9 to 3^16 tuples would run for seconds: n is small
    # enough to list at once or large enough to be refused before listing
    n=st.one_of(st.integers(1, 8), st.integers(17, 45)),
    sizes=st.tuples(st.integers(0, 45), st.integers(0, 45)),
)
@example(budget=10**21, k=1, n=30, sizes=(0, 0))  # listing above the cell cap
@example(budget=10**21, k=3, n=14, sizes=(0, 0))  # 3^42 states, above 2^63
@example(budget=10**12, k=25, n=1, sizes=(0, 0))  # function table above the cell cap
@example(budget=10**9, k=2, n=3, sizes=(3, 3))  # searched
@example(budget=10**9, k=3, n=14, sizes=(0, 0))  # above 2^63 and the budget
@example(budget=10**9, k=1, n=30, sizes=(0, 0))  # above the cell cap and the budget
def test_each_limit_is_refused_by_its_own_rule(budget, k, n, sizes):
    """A listing or table of more than 10^8 cells, or more than 2^63
    states, is a bound error naming the fixed limit, at any budget;
    under those, a count above the given budget is a budget error
    naming that budget."""
    a, b = sorted(min(size, n) for size in sizes)
    relation = rel(n, range(1, a + 1), range(1, b + 1))
    fn = zoo.ntdet(k)
    states = basic_members(relation, k)
    over_cap = states > 2**63 or 3**n > 10**8 or 3**k > 10**8
    over_budget = not over_cap and (states > budget or 3**n > budget)
    assume(over_budget or over_cap or states <= 10**5)
    config = dataclasses.replace(DEFAULT_CONFIG, budget=budget)
    try:
        invariance_counterexample(fn, relation, config)
    except BudgetExceededError as exc:
        assert over_budget
        assert exc.allowed == budget and exc.required > budget
    except BoundExceededError as exc:
        assert over_cap
        assert str(exc).endswith(("above 2^63", "above cell cap 100000000"))
    else:
        assert not over_budget and not over_cap


def test_level_route_needs_the_relation_listed_within_budget():
    """With budget 25, S^3_{3,3} has 21 members, few enough for a unary
    right side, but listing them walks 27 tuples: the invariant side
    rests on the level instead of failing the search, and the note
    quotes the refusal of that listing."""
    unary = zoo.make("ntdet(1)")
    small = dataclasses.replace(DEFAULT_CONFIG, budget=25)
    outcome = find_separating_relation(zoo.bp(), unary, small)
    found = outcome.found
    assert found.relation == canonical_equal(3)
    assert (found.invariant_method, found.invariant_states) == ("level", 21)
    assert found.witness.verify(zoo.bp())
    assert outcome.skipped == (
        "preseq n=3 A=1,2,3 B=1,2,3: invariant side skipped (relation enumeration "
        "needs 27 states, budget allows 25), justified by level instead",
    )


def test_canonicalize_golden():
    assert canonicalize(rel(5, {2, 4}, {2, 4, 5})) == rel(3, {1, 2}, {1, 2, 3})
    assert canonicalize(rel(4, {1, 3}, {1, 3})) == rel(2, {1, 2}, {1, 2})
    canonical = rel(3, {1, 2}, {1, 2, 3})
    assert canonicalize(canonical) == canonical
    assert canonicalize(rel(4, set(), set())) == rel(1, set(), set())
    assert canonicalize(rel(1, set(), set())) == rel(1, set(), set())


def test_canonicalize_preserves_invariance_spot():
    fns = [zoo.bp(), zoo.por(2), zoo.gustave(1), zoo.ttdet()]
    rels = [
        rel(4, {2, 4}, {2, 4}),
        rel(4, {2}, {2, 3}),
        rel(3, {3}, {1, 2, 3}),
        rel(4, set(), {1, 4}),
    ]
    for fn in fns:
        for r in rels:
            assert is_invariant(fn, r) == is_invariant(fn, canonicalize(r))


def test_padding_keeps_invariance():
    # same index sets at growing ambient arity
    fns = [zoo.bp(), zoo.por(2), zoo.ttdet(), zoo.gustave(1)]
    for fn in fns:
        for a, b in (({1, 2}, {1, 2}), ({1}, {1, 2}), ({1, 2}, {1, 2, 3})):
            n0 = max(b)
            results = {
                is_invariant(fn, rel(n, a, b)) for n in (n0, n0 + 1, n0 + 2)
            }
            assert len(results) == 1


@settings(max_examples=30, deadline=None)
@given(
    st.permutations(list(range(1, 5))),
    st.sampled_from([({1, 2}, {1, 2}), ({1}, {1, 2}), ({1, 2}, {1, 2, 3}), ({2}, {2, 4})]),
    st.sampled_from(["bp", "por_i(2)", "ttdet", "gustave_i(1)", "lsand"]),
)
def test_permutation_keeps_invariance(perm, ab, name):
    a, b = ab
    fn = zoo.make(name)
    mapping = {i: perm[i - 1] for i in range(1, 5)}
    pa = frozenset(mapping[i] for i in a)
    pb = frozenset(mapping[i] for i in b)
    assert is_invariant(fn, rel(4, a, b)) == is_invariant(fn, rel(4, pa, pb))


def test_chain_relation_shapes():
    c2 = chain_relation(2)
    assert len(c2.conjuncts) == 1 and c2.n == 2
    c3 = chain_relation(3)
    assert len(c3.conjuncts) == 2 and c3.n == 3
    assert not c3.member(t("TTF"))
    assert c3.member(t("TT_"))
    with pytest.raises(FormatError):
        chain_relation(1)


def test_find_separating_relation_golden():
    out = find_separating_relation(zoo.gustave(1), zoo.gustave(2))
    assert out.found is not None
    assert out.found.relation == rel(4, {1, 2, 3}, {1, 2, 3, 4})
    assert out.found.witness.verify(zoo.gustave(1))


def test_level_candidate_without_replaying_witness_is_unsound(monkeypatch):
    import parlevel.relations

    monkeypatch.setattr(parlevel.relations, "constructed_witness", lambda fn, rel: None)
    with pytest.raises(SoundnessError, match="does not replay"):
        find_separating_relation(zoo.gustave(1), zoo.gustave(2))


def test_find_separating_relation_self_is_none():
    out = find_separating_relation(zoo.bp(), zoo.bp())
    assert out.found is None


def test_find_separating_relation_chain_route():
    f2 = fn_sum(zoo.bp(), zoo.por(2))
    f3 = fn_sum(zoo.bp(), zoo.por(3))
    out = find_separating_relation(f2, f3)
    assert out.found is not None
    assert isinstance(out.found.relation, SeqRel)
    assert out.found.relation == chain_relation(3)
    assert out.found.witness.verify(f2)


@st.composite
def small_seqrels(draw):
    """An intersection of one to three basic relations of one arity <= 4,
    or, a third of the time, its first conjunct alone."""
    n = draw(st.integers(1, 4))
    conjuncts = draw(st.lists(basic_relations(n), min_size=1, max_size=3))
    return conjuncts[0] if draw(st.integers(0, 2)) == 0 else SeqRel(tuple(conjuncts))


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(random_traces(arities=(1, 2, 3)), st.sampled_from(zoo.catalog(max_arity=3))),
    small_seqrels(),
)
def test_pool_skips_exactly_the_relations_the_level_proves(fn, relation):
    """With fn on both sides there is no level separator, so the pool
    loop searches the drawn relation unless it prunes it.  It prunes it
    exactly when the level predicts every conjunct invariant, and then
    the search, run with the memo cleared, finds no counterexample: the
    respected relations are closed under intersection."""
    searched = []

    def recording(fn, rel, config=DEFAULT_CONFIG):
        searched.append(rel)
        return invariance_counterexample(fn, rel, config)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, "invariance_counterexample", recording)
        assert find_separating_relation(fn, fn, extra_relations=[relation]).found is None
    proved = all(relations.predict_invariant(p_level(fn), c) for c in conjuncts_of(relation))
    assert (relation not in searched) == proved
    if proved:
        relations._first_counterexample.cache_clear()
        assert relations._first_counterexample(fn, relation) is None


def unpruned_pool_separator(left, right) -> relations.Separation | None:
    """The chain-pool loop of `find_separating_relation` without the
    level prune: the first chain relation the right function respects
    and the left one breaks."""
    for r in [chain_relation(j) for j in range(2, relations.CHAIN_ARITY + 1)]:
        try:
            if invariance_counterexample(right, r) is not None:
                continue
            witness = invariance_counterexample(left, r)
        except (BudgetExceededError, BoundExceededError):
            continue
        if witness is not None:
            return relations.Separation(r, witness, "brute", len(member_matrix(r)) ** right.arity)
    return None


def test_level_prune_keeps_every_catalog_separator():
    """On every ordered catalog pair the levels do not separate, the
    pruned pool finds the separator, with its witness, that the unpruned
    pool finds.  No two of these catalog functions are told apart by a
    chain relation, so the degree table's bp+ttdet joins them: chain3
    separates por_i(2) from it and chain4 por_i(3), whose level proves
    chain3."""
    fns = zoo.catalog(max_arity=3) + [fn_sum(zoo.bp(), zoo.ttdet())]
    pooled, found = 0, 0
    for left, right in itertools.product(fns, repeat=2):
        if relations.level_separator(p_level(left), p_level(right)) is not None:
            continue
        expected = unpruned_pool_separator(left, right)
        assert find_separating_relation(left, right).found == expected, (left, right)
        pooled += 1
        found += expected is not None
    assert (pooled, found) == (77, 2)


def test_every_pool_relation_can_separate():
    """Each CHAIN_POOL relation has a conjunct that the lowest level,
    PLevel(2, 1), breaks: a relation every level respects is pruned
    before any search, as chain2 would be."""
    lowest = PLevel(2, 1)
    assert relations.CHAIN_POOL == tuple(
        chain_relation(j) for j in range(3, relations.CHAIN_ARITY + 1)
    )
    for rel in relations.CHAIN_POOL:
        assert not all(relations.predict_invariant(lowest, c) for c in rel.conjuncts), rel
    assert all(relations.predict_invariant(lowest, c) for c in chain_relation(2).conjuncts)
    with pytest.raises(ValueError):
        PLevel(1, 1)


def test_parse_and_format_relations():
    r = parse_relation("preseq n=4 A=1,2 B=1,2,3")
    assert r == rel(4, {1, 2}, {1, 2, 3})
    assert parse_relation(format_relation(r)) == r
    empty_a = parse_relation("preseq n=2 A= B=1,2")
    assert empty_a == rel(2, set(), {1, 2})
    s = parse_relation("seqrel n=3 {A=1,2 B=1,2} {A=1,2,3 B=1,2,3}")
    assert s == chain_relation(3)
    assert parse_relation(format_relation(s)) == s
    assert [str(r), str(s)] == [format_relation(r), format_relation(s)]
    assert format_relation(empty_a) == "preseq n=2 A= B=1,2"
    assert format_relation(s) == "seqrel n=3 {A=1,2 B=1,2} {A=1,2,3 B=1,2,3}"


def test_parse_relation_file_and_errors():
    rels = parse_relation_file("# comment\npreseq n=2 A=1 B=1,2\n\nseqrel n=2 {A=1,2 B=1,2}\n")
    assert len(rels) == 2
    with pytest.raises(FormatError):
        parse_relation("preseq n=0 A= B=")
    with pytest.raises(FormatError):
        parse_relation("preseq n=2 A=1,2 B=1")
    with pytest.raises(FormatError):
        parse_relation("seqrel n=2")
    with pytest.raises(FormatError) as exc:
        parse_relation_file("preseq n=2 A=1 B=1,2\nnonsense\n")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize(
    "line", ["preseq n=3 A=1,,2 B=1,2", "seqrel n=3 {A=1,,2 B=1,2}"]
)
def test_bad_index_list_names_its_line_once(line):
    with pytest.raises(FormatError) as exc:
        parse_relation_file(f"# relations\n{line}\n")
    assert str(exc.value) == "line 2: bad index list '1,,2'"


@pytest.mark.parametrize(
    "line, listed",
    [
        # one conjunct rule: a seqrel value is read as a preseq one is
        ("preseq n=3 A=x B=1", "x"),
        ("seqrel n=3 {A=1 B=1} {A=x B=1}", "x"),
        ("seqrel n=3 {A=\u0661 B=1,2}", "\u0661"),
        ("preseq n=3 A={1} B=1", "{1}"),
    ],
)
def test_one_conjunct_rule_for_both_kinds_of_line(line, listed):
    """Both kinds of line read their A= and B= values by the same rule."""
    with pytest.raises(FormatError) as exc:
        parse_relation_file(f"# relations\n{line}\n")
    assert str(exc.value) == f"line 2: bad index list {listed!r}"


@pytest.mark.parametrize(
    "line",
    [
        "preseq n=\u0663 A=1 B=1,2",  # non-ASCII decimal digit in the arity
        "preseq n=3 A=\u0661 B=1,2",
        "preseq n=3 A=1 B=1,\u0662",
        "seqrel n=\u0663 {A=1 B=1,2}",
        "seqrel n=3 {A=\u0661 B=1,2}",
        "preseq n=3 A=+1 B=1,2",  # int() takes a sign
        "preseq n=12 A=1_0 B=1,2,10",  # and an underscore
    ],
)
def test_parse_relation_file_takes_ascii_digits_only(line):
    with pytest.raises(FormatError) as exc:
        parse_relation_file(f"# relations\n{line}\n")
    assert exc.value.line == 2


def test_member_matrix_order_is_code_order():
    mat = member_matrix(canonical_equal(2))
    codes = [int(3 * a + b) for a, b in mat]
    assert codes == sorted(codes)


def test_member_matrix_is_read_only():
    rel = chain_relation(3)
    f2 = fn_sum(zoo.bp(), zoo.por(2))
    assert not is_invariant(f2, rel)
    with pytest.raises(ValueError):
        member_matrix(rel)[:] = 0
    assert not is_invariant(f2, rel)
    assert member_matrix(rel) is member_matrix(rel)
