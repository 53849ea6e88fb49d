"""The four workloads, driven through parlevel's public API.

Each workload has five parts:

* `setup` builds the program-side inputs that do not depend on the seed
  (this is what `setup_s` times, together with `import parlevel`);
* `bind` turns the seeded plain-data inputs from `inputs.generate` into
  rounds of items;
* `run_item` is the timed call, and `check` grades its answer against
  a reference the program did not produce: "right", "wrong" or
  "undecided";
* `key` names an item, the same in every round it is run in, so that
  its latencies in a run can be pooled.

The program is reached through module attributes (`pl.compare`,
`zoo.make`), so the wrappers of the traced run see every call.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Hashable

import parlevel as pl
from parlevel import zoo

from inputs import CERTIFY_BG_CHAINS, CERTIFY_MAPPINGS, CERTIFY_OVER_BUDGET, CERTIFY_POR_CHAINS
from reference import MATRIX_NAMES, MATRIX_TRUTH, coherence_sizes

SKIPPED = "skipped"
SWEEP_ROUND = 1200
RIGHT, WRONG, UNDECIDED = "right", "wrong", "undecided"


# ---------------------------------------------------------------------------
# matrix: one compare(f, g) per item, default config
# ---------------------------------------------------------------------------

def _matrix_setup() -> dict:
    return {name: zoo.make(name) for name in MATRIX_NAMES}


def _matrix_bind(specs: dict, fns: dict) -> list[list]:
    return [
        [(left, right, fns[left], fns[right]) for left, right in cells]
        for cells in specs["rounds"]
    ]


def _matrix_run(item):
    return pl.compare(item[2], item[3])


def _definable(source: str, target: str, truth: dict) -> bool:
    return truth[(source, target)] in ("left_below_strict", "equiparallel")


def replay_certificate(cert, item, truth: dict = MATRIX_TRUTH) -> bool:
    """Rebuild a certificate from its payload text alone, replay it with
    the checker for its kind, and hold its claim against the table."""
    src, tgt = cert.source, cert.target
    names = (item[0], item[1]) if src is item[2] else (item[1], item[0])
    if cert.kind == "bm_mapping":
        index_of = {str(e): i for i, e in enumerate(tgt.entries)}
        assignment = tuple(index_of.get(t, -1) for _, t in cert.payload["mapping"])
        if [s for s, _ in cert.payload["mapping"]] != [str(e) for e in src.entries]:
            return False
        if -1 in assignment:
            return False
        ok = pl.check_bm(pl.BMMapping(src, tgt, assignment))
        return ok and _definable(*names, truth)
    if cert.kind == "separation":
        witness = pl.InvarianceWitness(
            pl.parse_relation(cert.payload["relation"]),
            tuple(pl.TriTuple.from_text(t) for t in cert.payload["witness_inputs"]),
            pl.TriTuple.from_text(cert.payload["witness_output"]),
        )
        return witness.verify(src) and not _definable(*names, truth)
    if cert.kind == "term_chain":
        # evaluate the term on the target as `parlevel term` does, and
        # hold the result against the zoo's closed form of the source
        term = pl.parse_term(cert.payload["term"])
        config = dataclasses.replace(
            pl.DEFAULT_CONFIG, table_bound=max(pl.DEFAULT_CONFIG.table_bound, term.arity)
        )
        closed_form = item[2] if names[0] == item[0] else item[3]
        return pl.eval_term(term, tgt, config) == closed_form and _definable(*names, truth)
    return False


def _matrix_check(item, verdict, truth: dict = MATRIX_TRUTH) -> str:
    try:
        replayed = all(replay_certificate(c, item, truth) for c in verdict.evidence)
    except pl.AnalysisError:  # a certificate the checkers reject as malformed
        replayed = False
    if not replayed:
        return WRONG
    if verdict.relation == "unknown":
        return UNDECIDED
    return RIGHT if verdict.relation == truth[(item[0], item[1])] else WRONG


# ---------------------------------------------------------------------------
# sweep: one is_invariant(fn, rel) per item
# ---------------------------------------------------------------------------

def basic_relations() -> list:
    """The 120 basic relations S^n_{A,B} with A <= B <= {1..n}, n <= 4."""
    rels = []
    for n in range(1, 5):
        universe = range(1, n + 1)
        for b_size in range(n + 1):
            for b in itertools.combinations(universe, b_size):
                for a_size in range(b_size + 1):
                    for a in itertools.combinations(b, a_size):
                        rels.append(pl.PreseqRel(n, frozenset(a), frozenset(b)))
    return rels


def _sweep_setup() -> dict:
    fns = list(pl.enumerate_monotone(1)) + list(pl.enumerate_monotone(2))
    fns += zoo.catalog(max_arity=3)
    return {"fns": fns, "rels": basic_relations(), "levels": {}}


def _sweep_bind(specs: dict, ctx: dict) -> list[list]:
    fns, rels = ctx["fns"], ctx["rels"]
    if len(fns) * len(rels) != len(specs["order"]):
        raise ValueError(f"sweep expects {len(specs['order'])} pairs, setup built "
                         f"{len(fns)} x {len(rels)}")
    n = len(rels)
    items = [(i // n, fns[i // n], rels[i % n], ctx) for i in specs["order"]]
    # rounds of 1200 pairs (about 0.7 s) hold their share of the few
    # costly pairs, so every round has about the same make-up
    return [items[i:i + SWEEP_ROUND] for i in range(0, len(items), SWEEP_ROUND)]


def _sweep_run(item):
    return pl.is_invariant(item[1], item[2])


def _sweep_check(item, answer) -> str:
    index, fn, rel, ctx = item
    levels = ctx["levels"]
    if index not in levels:
        levels[index] = pl.p_level(fn)
    expected = pl.predict_invariant(levels[index], pl.canonicalize(rel))
    return RIGHT if answer == expected else WRONG


# ---------------------------------------------------------------------------
# classify: parse_trace -> classify -> to_json_dict per item
# ---------------------------------------------------------------------------

def _classify_setup() -> dict:
    return {"reference": {}}


def _classify_bind(specs: dict, ctx: dict) -> list[list]:
    return [[(text, ctx) for text in block] for block in specs["blocks"]]


def _classify_run(item):
    return pl.classify(pl.parse_trace(item[0])).to_json_dict()


def _classify_check(item, report) -> str:
    text, ctx = item
    reference = ctx["reference"]
    if text not in reference:
        reference[text] = coherence_sizes(text)
    return RIGHT if (report["cc"], report["bcc"]) == reference[text] else WRONG


# ---------------------------------------------------------------------------
# certify: mapping search + check, and term chains
# ---------------------------------------------------------------------------

def _family_index(name: str) -> tuple[str, int]:
    family, rest = name.split("(")
    return family, int(rest.split(",")[0].rstrip(")"))


def mapping_definable(source: str, target: str) -> bool:
    """Within the gustave_i and bg(i,1) hierarchies a higher index is
    definable from a lower one, and not conversely."""
    sf, si = _family_index(source)
    tf, ti = _family_index(target)
    return sf == tf and si >= ti


def _certify_setup() -> dict:
    mapped = sorted({n for pair in CERTIFY_MAPPINGS + CERTIFY_OVER_BUDGET for n in pair})
    names = mapped + [f"neg({n})" for n in mapped]
    names += sorted({f"por_i({n})" for chain in CERTIFY_POR_CHAINS for n in chain})
    names += sorted({f"bg({i},{j})" for i, a, b in CERTIFY_BG_CHAINS for j in (a, b)})
    return {name: zoo.make(name) for name in names}


def _certify_bind(specs: dict, fns: dict) -> list[list]:
    rounds = []
    for items in specs["passes"]:
        bound = []
        for item in items:
            if item[0] == "map":
                _, src, tgt, negate = item
                wrap = (lambda n: f"neg({n})") if negate else (lambda n: n)
                bound.append(("map", src, tgt, fns[wrap(src)], fns[wrap(tgt)], negate))
            elif item[0] == "por":
                _, b, a = item
                bound.append(("por", b, a, fns[f"por_i({b})"], fns[f"por_i({a})"]))
            else:
                _, i, jg, jf = item
                bound.append(("bg", (i, jg, jf), None,
                              fns[f"bg({i},{jg})"], fns[f"bg({i},{jf})"]))
        rounds.append(bound)
    return rounds


def _term_chain(item):
    kind, first, second = item[:3]
    if kind == "por":
        term = pl.por_step_term(first)
        for mid in range(first + 1, second):
            term = pl.inline_oracle(pl.por_step_term(mid), term)
        return term
    i, jg, jf = first
    forward, backward = pl.bg_rotation_terms(i)
    step = forward if jf > jg else backward
    term = step
    for _ in range(abs(jf - jg) - 1):
        term = pl.inline_oracle(step, term)
    return term


def _certify_run(item):
    if item[0] == "map":
        try:
            mapping = pl.bm_search(item[3], item[4])
        except pl.BudgetExceededError:
            return SKIPPED
        return None if mapping is None else (mapping, pl.check_bm(mapping))
    # what `parlevel term` does: write the term out, read it back, and
    # raise the table bound to the term's arity
    term = pl.parse_term(pl.format_term(_term_chain(item)))
    config = dataclasses.replace(
        pl.DEFAULT_CONFIG, table_bound=max(pl.DEFAULT_CONFIG.table_bound, term.arity)
    )
    return pl.eval_term(term, item[3], config)


def _certify_check(item, answer) -> str:
    if item[0] != "map":
        return RIGHT if answer == item[4] else WRONG
    if answer == SKIPPED or answer is None:
        return UNDECIDED  # a missing mapping is never a negative claim
    mapping, checked = answer
    src, tgt = mapping.source, mapping.target
    index_of = {str(e): i for i, e in enumerate(tgt.entries)}
    replayed = pl.check_bm(
        pl.BMMapping(src, tgt, tuple(index_of[t] for _, t in mapping.rows()))
    )
    ok = checked and replayed and mapping_definable(item[1], item[2])
    return RIGHT if ok else WRONG


# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Workload:
    setup: Callable[[], Any]
    bind: Callable[[dict, Any], list[list]]
    run_item: Callable[[Any], Any]
    check: Callable[[Any, Any], str]
    key: Callable[[Any], Hashable]


WORKLOADS = {
    "matrix": Workload(_matrix_setup, _matrix_bind, _matrix_run, _matrix_check,
                       lambda item: item[:2]),
    "sweep": Workload(_sweep_setup, _sweep_bind, _sweep_run, _sweep_check,
                      lambda item: (item[0], item[2])),
    "classify": Workload(_classify_setup, _classify_bind, _classify_run, _classify_check,
                         lambda item: item[0]),
    # a mapping item's key holds whether its functions are negated
    "certify": Workload(_certify_setup, _certify_bind, _certify_run, _certify_check,
                        lambda item: item[:3] + item[5:]),
}
