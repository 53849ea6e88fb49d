"""Named verification suites behind the command-line `verify` command.

Each suite replays a block of results at desk scale and returns one
pass/fail row per check.  The plevels suite checks the golden level
table, the degree aliases, the sum and negation laws, the zoo self-test
(trace shapes, coefficients and stability the level table does not
already pin down) and the cofinal trace mappings.  The heavy suite
(lemmas) enumerates every monotone function of arity at most two and
every basic relation of arity at most four, and takes about 2 s on a
2-core machine; the others take under half a second.  The acceptance
tests drive these suites.
"""

from __future__ import annotations

import dataclasses
import itertools

from .config import DEFAULT_CONFIG, SearchConfig
from .definability import MAPPING_BOUND, bm_search, cofinal_witness, compare
from .errors import AnalysisError
from .functions import MonotoneFn, fn_sum, is_m_sequential, neg
from .plevels import (
    INF,
    PLevel,
    cc,
    classify,
    enumerate_monotone,
    p_level,
    p_level_of_sum,
)
from .relations import (
    PreseqRel,
    canonical_equal,
    canonical_strict,
    canonicalize,
    chain_relation,
    find_separating_relation,
    invariance_counterexample,
    is_invariant,
    level_separator,
    predict_invariant,
)
from .terms import bg_rotation_terms, eval_term, mono_to_det_term, por_step_term
from .zoo import bivalued_gustave, bp, catalog, det, gustave, make, ntdet, por, ttdet


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


GOLDEN_LEVELS: list[tuple[str, int | float, int | float]] = (
    [("bp", 2, 2)]
    + [(f"gustave_i({i})", INF, 2 * i) for i in range(1, 5)]
    + [(f"bg({i},{j})", 2 * i, 2 * i) for i in range(1, 5) for j in range(1, i + 1)]
    + [(f"por_i({i})", i, 1) for i in range(2, 7)]
    + [("det", INF, 1), ("ttdet", INF, 1)]
    + [("bp+ttdet", 2, 1)]
    + [("lsand", INF, INF)]
)

SUM_PAIRS: list[tuple[str, str]] = [
    ("bp", "ttdet"),
    ("bp", "gustave_i(1)"),
    ("bp", "por_i(2)"),
    ("gustave_i(1)", "gustave_i(2)"),
    ("gustave_i(1)", "ttdet"),
    ("gustave_i(2)", "bg(2,1)"),
    ("bg(1,1)", "bg(2,1)"),
    ("bg(2,2)", "por_i(3)"),
    ("por_i(2)", "por_i(3)"),
    ("det", "ttdet"),
    ("ntdet(3)", "gustave_i(1)"),
    ("lsand", "bp"),
    ("lsand", "ttdet"),
    ("por_i(2)", "gustave_i(1)"),
    ("bg(2,1)", "det"),
]


def suite_plevels() -> list[CheckResult]:
    out: list[CheckResult] = []
    for name, i, j in GOLDEN_LEVELS:
        fn = make(name)
        got = p_level(fn)
        want = PLevel(i, j)
        out.append(
            CheckResult(f"level[{name}] = {want}", got == want, f"got {got}")
        )
    for name, alias in (("bg(1,1)", "BP"), ("det", "DET"), ("ttdet", "DET"),
                        ("ntdet(2)", "DET"), ("ntdet(3)", "DET")):
        rep = classify(make(name))
        out.append(
            CheckResult(
                f"alias[{name}] = {alias}",
                rep.degree_alias == alias,
                f"got {rep.degree_alias}",
            )
        )
    rep = classify(make("por_i(2)"))
    out.append(
        CheckResult(
            "por_i(2): stable-dominating, no alias",
            "stable_dominating" in rep.classes and rep.degree_alias == "none",
            f"got alias {rep.degree_alias}",
        )
    )
    for left, right in SUM_PAIRS:
        f, g = make(left), make(right)
        s = fn_sum(f, g)
        want = p_level_of_sum(p_level(f), p_level(g))
        got = p_level(s)
        out.append(
            CheckResult(
                f"sum level[{left} + {right}] = {want}", got == want, f"got {got}"
            )
        )
    for fn in catalog(max_arity=5):
        same = p_level(neg(fn)) == p_level(fn)
        out.append(CheckResult(f"negation keeps level[{fn.name}]", same))
    out.extend(verify_zoo_invariants())
    # cofinal construction on stable non-sequential catalog functions
    # whose source gustave_i(cc) fits the mapping bound; the construction
    # raises SoundnessError itself when its mapping fails check_bm
    for fn in catalog():
        c = cc(fn)
        if fn.stable and c != INF and gustave(c).trace_size <= MAPPING_BOUND:
            index, _ = cofinal_witness(fn)
            name = f"cofinal mapping gustave_i({index}) -> {fn.name}"
            out.append(CheckResult(name, index == c, f"index {index}, cc {c}"))
    return out


GUSTAVE_MATRIX_1 = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
CYCLIC_MATRIX_1 = {(0, 1, 2), (2, 0, 1), (1, 2, 0)}
CYCLIC_MATRIX_2 = {
    (0, 1, 2, 1, 2),
    (2, 0, 1, 2, 1),
    (1, 2, 0, 1, 2),
    (2, 1, 2, 0, 1),
    (1, 2, 1, 2, 0),
}


def verify_zoo_invariants() -> list[CheckResult]:
    """Self-test of every family against its stated trace shape,
    coefficient and stability, beyond the levels GOLDEN_LEVELS checks;
    failures are carried in the report."""
    results: list[CheckResult] = []

    def check(name: str, ok: bool) -> None:
        results.append(CheckResult(name, bool(ok)))

    def inputs_of(fn: MonotoneFn) -> set[tuple[int, ...]]:
        return {tuple(int(v) for v in e.input.entries) for e in fn.entries}

    check(
        "cyclic closed form matches printed matrix i=1",
        inputs_of(gustave(1)) == CYCLIC_MATRIX_1,
    )
    check(
        "cyclic closed form matches printed matrix i=2",
        inputs_of(gustave(2)) == CYCLIC_MATRIX_2,
    )
    check(
        "three-row all-true matrix equals cyclic family at i=1",
        inputs_of(gustave(1)) == GUSTAVE_MATRIX_1,
    )

    for i in range(1, 5):
        g = gustave(i)
        check(
            f"gustave_i({i}) trace size and coefficient",
            g.trace_size == 2 * i + 1 and cc(g) == 2 * i + 1,
        )
        check(f"gustave_i({i}) stable and monovalued", g.stable and len(set(g.outputs)) == 1)
        for j in range(1, i + 1):
            check(f"bg({i},{j}) stable", bivalued_gustave(i, j).stable)

    for i in range(2, 7):
        check(f"por_i({i}) unstable", not por(i).stable)

    check("bp stable", bp().stable)
    for fn in (det(), ttdet()):
        check(f"{fn.name} unstable", not fn.stable)
    check(
        "detector variants mutually definable by trace mappings",
        bm_search(det(), ttdet()) is not None
        and bm_search(ttdet(), det()) is not None,
    )
    return results


def _canonical_relations() -> list[PreseqRel]:
    rels = [canonical_equal(m) for m in range(1, 5)]
    rels += [canonical_strict(m) for m in range(0, 5)]
    return rels


def suite_lemmas() -> list[CheckResult]:
    out: list[CheckResult] = []

    # exact level criterion against brute force, over every monotone
    # function of arity <= 2 and every canonical relation
    rels = _canonical_relations()
    mismatches = 0
    total = 0
    for arity in (1, 2):
        for fn in enumerate_monotone(arity):
            level = p_level(fn)
            for rel in rels:
                total += 1
                if predict_invariant(level, rel) != is_invariant(fn, rel):
                    mismatches += 1
    out.append(
        CheckResult(
            "level criterion == brute-force invariance (all arity<=2 functions)",
            mismatches == 0,
            f"{total} checks, {mismatches} mismatches",
        )
    )

    # canonicalization preserves invariance for every small relation
    small = catalog(max_arity=3)
    pairs_checked = 0
    pairs_bad = 0
    for n in range(1, 5):
        universe = list(range(1, n + 1))
        for b_size in range(0, n + 1):
            for b in itertools.combinations(universe, b_size):
                for a_size in range(0, b_size + 1):
                    for a in itertools.combinations(b, a_size):
                        rel = PreseqRel(n, frozenset(a), frozenset(b))
                        canon = canonicalize(rel)
                        for fn in small:
                            pairs_checked += 1
                            if is_invariant(fn, rel) != is_invariant(fn, canon):
                                pairs_bad += 1
    out.append(
        CheckResult(
            "canonicalization preserves invariance (zoo arity<=3, n<=4)",
            pairs_bad == 0,
            f"{pairs_checked} checks, {pairs_bad} mismatches",
        )
    )

    # the three downward-closure implications
    closure_bad = []
    for fn in small:
        for m in range(0, 4):
            strict_hi = is_invariant(fn, canonical_strict(m))
            eq_m = is_invariant(fn, canonical_equal(m)) if m >= 1 else True
            eq_hi = is_invariant(fn, canonical_equal(m + 1))
            strict_next = is_invariant(fn, canonical_strict(m + 1))
            if strict_hi and m >= 1 and not eq_m:
                closure_bad.append((fn.name, m, 1))
            if eq_hi and m >= 1 and not eq_m:
                closure_bad.append((fn.name, m, 2))
            if strict_next and not strict_hi:
                closure_bad.append((fn.name, m, 3))
    out.append(
        CheckResult(
            "closure implications (zoo arity<=3, m<=3)",
            not closure_bad,
            f"violations: {closure_bad}" if closure_bad else "",
        )
    )

    # sequentiality: recursive test == no coherent subset == top level
    seq_bad = 0
    seq_total = 0
    for arity in (1, 2):
        for fn in enumerate_monotone(arity):
            seq_total += 1
            recursive = is_m_sequential(fn)
            coherencefree = cc(fn) == INF
            top = p_level(fn) == PLevel(INF, INF)
            if not (recursive == coherencefree == top):
                seq_bad += 1
    out.append(
        CheckResult(
            "sequentiality equivalence (all arity<=2 functions)",
            seq_bad == 0,
            f"{seq_total} functions, {seq_bad} mismatches",
        )
    )
    return out


def suite_hierarchies() -> list[CheckResult]:
    out: list[CheckResult] = []

    for family, builder in (("gustave_i", gustave), ("bg", lambda i: bivalued_gustave(i, 1))):
        for i in range(1, 5):
            for j in range(i + 1, 5):
                low, high = builder(i), builder(j)
                found = find_separating_relation(low, high).found
                # the level fast path flags the pair too, and an invariant
                # side not brute-forced is one whose cost is over budget
                ok = (
                    found is not None
                    and found.witness.verify(low)
                    and level_separator(p_level(low), p_level(high)) is not None
                    and (
                        found.invariant_method == "brute"
                        or found.invariant_states > DEFAULT_CONFIG.budget
                    )
                )
                detail = "" if ok else "no verified separator"
                out.append(
                    CheckResult(
                        f"{family}: index {i} not definable from index {j}", ok, detail
                    )
                )
    for builder in (gustave, lambda i: bivalued_gustave(i, 1)):
        for i in range(1, 4):
            for j in range(i, 4):
                ok = bm_search(builder(j), builder(i)) is not None
                out.append(
                    CheckResult(
                        f"{builder(j).name} definable from {builder(i).name}", ok
                    )
                )

    # composite chain relation separates the join hierarchy rung
    rel = chain_relation(3)
    f2 = fn_sum(bp(), por(2))
    f3 = fn_sum(bp(), por(3))
    inv3 = is_invariant(f3, rel)
    wit2 = invariance_counterexample(f2, rel)
    out.append(CheckResult("bp+por_i(3) respects the arity-3 chain relation", inv3))
    out.append(
        CheckResult(
            "bp+por_i(2) breaks the arity-3 chain relation (witness replays)",
            wit2 is not None and wit2.verify(f2),
        )
    )

    # a missing mapping must never become a negative claim
    no_map = bm_search(por(3), por(2)) is None
    verdict = compare(por(3), por(2))
    out.append(
        CheckResult(
            "no mapping por_i(3) -> por_i(2); comparison stays unknown",
            no_map and verdict.relation == "unknown",
            f"verdict {verdict.relation}",
        )
    )
    return out


def suite_terms() -> list[CheckResult]:
    cfg = SearchConfig(table_bound=7)  # bg_rotation_terms(3) has arity 7
    out: list[CheckResult] = []
    for i in (2, 3, 4):
        got = eval_term(por_step_term(i), por(i), cfg)
        out.append(
            CheckResult(f"step term at por_i({i}) yields por_i({i + 1})", got == por(i + 1))
        )
    for i in (1, 2, 3):
        m1, m2 = bg_rotation_terms(i)
        for j in range(2, i + 1):
            fwd = eval_term(m1, bivalued_gustave(i, j - 1), cfg)
            back = eval_term(m2, bivalued_gustave(i, j), cfg)
            out.append(
                CheckResult(
                    f"rotations exchange bg({i},{j - 1}) and bg({i},{j})",
                    fwd == bivalued_gustave(i, j)
                    and back == bivalued_gustave(i, j - 1),
                )
            )
    for i in (1, 2):
        g = gustave(i)
        got = eval_term(mono_to_det_term(g), ntdet(g.trace_size), cfg)
        out.append(
            CheckResult(f"detector synthesis rebuilds gustave_i({i})", got == g)
        )
    verdict = compare(por(3), por(2), cfg, allow_terms=True)
    out.append(
        CheckResult(
            "term route resolves por_i(3) vs por_i(2) as strictly below",
            verdict.relation == "left_below_strict",
            f"verdict {verdict.relation}",
        )
    )
    return out


SUITES = {
    "plevels": suite_plevels,
    "lemmas": suite_lemmas,
    "hierarchies": suite_hierarchies,
    "terms": suite_terms,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        return [r for suite in SUITES.values() for r in suite()]
    if name not in SUITES:
        *first, last = ["all", *SUITES]
        raise AnalysisError(f"unknown suite {name!r} (want {', '.join(first)} or {last})")
    return SUITES[name]()
