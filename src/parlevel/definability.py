"""Positive definability evidence and the combined comparison engine.

The positive route is the trace-mapping sufficient condition: a total
map between traces under which every non-singleton coherent subset of
source inputs keeps a non-singleton coherent image, and output-distinct
entries inside such subsets keep distinct outputs.  Passing the check
proves the source definable from the target; failing to find a mapping
proves nothing (the condition is sufficient, not necessary), which the
engine is careful never to forget.

Negative evidence comes from separating relations (see relations module)
or the level comparison.  The verdict combiner keeps "unknown" as a
first-class outcome and records which budgets were exhausted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, SearchConfig
from .errors import (
    BoundExceededError,
    BudgetExceededError,
    InapplicableError,
    SoundnessError,
    state_figure,
)
from .functions import MonotoneFn
from .lattice import mask_coherent
from .plevels import min_coherent_subset, p_level
from .relations import (
    Relation,
    Separation,
    find_separating_relation,
    format_relation,
    level_separator,
)
from .terms import (
    bg_rotation_terms, eval_term, format_term, inline_oracle, oracle_calls, por_step_term
)
from .zoo import PARAM_BOUND, bivalued_gustave, gustave, por


@dataclass(frozen=True)
class BMMapping:
    """A total map from source trace entries to target trace entries,
    stored as target indices aligned with the source entry order."""

    source: MonotoneFn
    target: MonotoneFn
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.source.trace_size:
            raise InapplicableError("assignment must cover the whole source trace")
        if any(not 0 <= t < self.target.trace_size for t in self.assignment):
            raise InapplicableError("assignment index out of range")

    def rows(self) -> list[list[str]]:
        return [
            [str(self.source.entries[s]), str(self.target.entries[t])]
            for s, t in enumerate(self.assignment)
        ]


MAPPING_BOUND = 16  # largest source trace a mapping check or search takes


def _check_mapping_bound(source: MonotoneFn) -> None:
    m = source.trace_size
    if m > MAPPING_BOUND:
        raise BoundExceededError(
            f"source trace size {m} above mapping bound {MAPPING_BOUND}"
        )


def _images_ok(masks, assignment, src_tt, tgt_tt, tplanes) -> bool:
    """The mapping condition on the given source masks: each image is a
    coherent set of two or more target entries, and source entries with
    different outputs keep different outputs.  `src_tt`/`tgt_tt` are
    the traces' true-output masks, `tplanes` the target's bitplanes."""
    for mask in masks:
        image = outs_tt = outs_ff = 0
        bits = mask
        while bits:
            low = bits & -bits
            t = assignment[low.bit_length() - 1]
            image |= 1 << t
            if src_tt & low:
                outs_tt |= 1 << (tgt_tt >> t & 1)
            else:
                outs_ff |= 1 << (tgt_tt >> t & 1)
            bits ^= low
        if image.bit_count() < 2 or not mask_coherent(image, tplanes):
            return False
        if outs_tt & outs_ff:
            return False
    return True


def check_bm(mapping: BMMapping) -> bool:
    """Exact check over ALL source subsets (coherence is not closed
    under subsets, so minimal subsets alone would not do)."""
    src, tgt = mapping.source, mapping.target
    _check_mapping_bound(src)
    return _images_ok(
        src.coherent_subsets, mapping.assignment, src.tt_mask, tgt.tt_mask, tgt.planes
    )


def bm_search(
    f: MonotoneFn, g: MonotoneFn, config: SearchConfig = DEFAULT_CONFIG
) -> BMMapping | None:
    """Depth-first search for a valid trace mapping f -> g, assigning
    target indices in ascending order with forward checking restricted
    to already-assigned entries; the first hit is returned after a full
    re-verification.  None means no mapping exists (within the exact,
    exhaustive search) -- which licenses NO negative conclusion."""
    _check_mapping_bound(f)
    m = f.trace_size
    raw = g.trace_size**m
    if raw > config.budget:
        raise BudgetExceededError(raw, config.budget, what="mapping search")

    # a subset is checked once its highest entry is assigned
    by_max: list[list[int]] = [[] for _ in range(m)]
    for mask in f.coherent_subsets:
        by_max[mask.bit_length() - 1].append(mask)
    src_tt, tgt_tt, tplanes = f.tt_mask, g.tt_mask, g.planes
    assignment: list[int] = []

    def dfs(depth: int) -> bool:
        if depth == m:
            return True
        for t in range(g.trace_size):
            assignment.append(t)
            if _images_ok(by_max[depth], assignment, src_tt, tgt_tt, tplanes) and dfs(depth + 1):
                return True
            assignment.pop()
        return False

    if not dfs(0):
        return None
    mapping = BMMapping(f, g, tuple(assignment))
    if not check_bm(mapping):
        raise SoundnessError("search produced a mapping that fails the full check")
    return mapping


def cofinal_witness(fn: MonotoneFn) -> tuple[int, BMMapping]:
    """For a stable non-sequential function, the cyclic monovalued
    function indexed by the coherence coefficient maps onto a minimal
    coherent trace subset; returns that index and the verified mapping."""
    if not fn.stable:
        raise InapplicableError("construction applies to stable functions only")
    subset = min_coherent_subset(fn, bivalued=False)
    if subset is None:
        raise InapplicableError("function is sequential; nothing to witness")
    index = len(subset)
    source = gustave(index)
    subset_idx = [fn.inputs.index(t) for t in subset]
    assignment = tuple(subset_idx[s % index] for s in range(source.trace_size))
    mapping = BMMapping(source, fn, assignment)
    if not check_bm(mapping):
        raise SoundnessError("cofinal mapping failed verification")
    return index, mapping


# ---------------------------------------------------------------------------
# Certificates and the comparison engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    kind: str  # "bm_mapping" | "separation" | "term_chain"
    source: MonotoneFn
    target: MonotoneFn
    payload: dict

    def claim(self) -> str:
        if self.kind == "separation":
            return f"{self.source.label} is not definable from {self.target.label}"
        return f"{self.source.label} is definable from {self.target.label}"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "source": _fn_json(self.source),
            "target": _fn_json(self.target),
            "payload": self.payload,
            "verified": True,  # built only from checked evidence
        }


def _fn_json(fn: MonotoneFn) -> dict:
    return {
        "name": fn.name,
        "arity": fn.arity,
        "trace": [str(e) for e in fn.entries],
    }


def mapping_certificate(mapping: BMMapping) -> Certificate:
    return Certificate(
        kind="bm_mapping",
        source=mapping.source,
        target=mapping.target,
        payload={"mapping": mapping.rows()},
    )


def separation_certificate(
    left: MonotoneFn, right: MonotoneFn, sep: Separation
) -> Certificate:
    return Certificate(
        kind="separation",
        source=left,
        target=right,
        payload={
            "relation": format_relation(sep.relation),
            "witness_inputs": [t.text for t in sep.witness.inputs],
            "witness_output": sep.witness.output.text,
            "invariant_side": {
                "function": right.label,
                "method": sep.invariant_method,
                "states": state_figure(sep.invariant_states),
            },
        },
    )


@dataclass(frozen=True)
class CompareVerdict:
    relation: str  # equiparallel | left_below_strict | right_below_strict
    #              | incomparable | unknown
    evidence: tuple[Certificate, ...]
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation,
            "evidence": [c.to_json_dict() for c in self.evidence],
            "notes": list(self.notes),
        }


def _try_term_route(
    f: MonotoneFn, g: MonotoneFn, config: SearchConfig
) -> Certificate | None:
    """Template-based positive route for the known families whose
    definability proofs are explicit terms: each near-unanimity rung
    from the one below, and the bivalued cyclic rotations.  The chain's
    steps are inlined into one term of the source's arity, so a source
    above the table bound is refused before any term is built.  The
    evaluation fills 3^k cells for each oracle call of that term, the
    product of the steps' calls; more cells than the budget is a
    BudgetExceededError, raised before the chain is inlined."""
    if f.arity > config.table_bound:
        return None

    def as_por(fn: MonotoneFn) -> int | None:
        if 2 <= fn.arity <= PARAM_BOUND and fn == por(fn.arity):
            return fn.arity
        return None

    def as_bg(fn: MonotoneFn) -> tuple[int, int] | None:
        i = (fn.arity - 1) // 2
        j = fn.trace_size - fn.tt_mask.bit_count()  # bg(i,j) has j false entries
        if fn.arity % 2 and 1 <= j <= i <= PARAM_BOUND and fn == bivalued_gustave(i, j):
            return (i, j)
        return None

    # a por trace has an all-defined input and a bg trace none, so at
    # most one family matches
    steps = []
    a, b = as_por(f), as_por(g)
    fb, gb = as_bg(f), as_bg(g)
    if a is not None and b is not None:
        steps = [por_step_term(mid) for mid in range(b, a)]
    elif fb is not None and gb is not None and fb[0] == gb[0]:
        (i, jf), jg = fb, gb[1]
        forward, backward = bg_rotation_terms(i)
        steps = [forward if jf > jg else backward] * abs(jf - jg)
    if not steps:
        return None  # identity, or a por source below its target
    cells = math.prod(oracle_calls(step.root) for step in steps) * 3**f.arity
    if cells > config.budget:
        raise BudgetExceededError(cells, config.budget, what="term route")
    term = functools.reduce(lambda inner, step: inline_oracle(step, inner), steps)
    produced = eval_term(term, g, config)
    if produced != f:
        return None
    return Certificate(
        kind="term_chain",
        source=f,
        target=g,
        payload={"term": format_term(term).strip(), "oracle": g.label},
    )


def _positive(
    f: MonotoneFn, g: MonotoneFn, config: SearchConfig, allow_terms: bool, notes: list[str]
) -> Certificate | None:
    try:
        mapping = bm_search(f, g, config)
    except (BudgetExceededError, BoundExceededError) as exc:
        notes.append(f"mapping search {f.label} -> {g.label} skipped ({exc})")
        mapping = None
    if mapping is not None:
        return mapping_certificate(mapping)
    if allow_terms:
        try:
            return _try_term_route(f, g, config)
        except (BudgetExceededError, BoundExceededError) as exc:
            notes.append(f"term route {f.label} -> {g.label} skipped ({exc})")
    return None


# whether left is definable from right, and right from left -> relation;
# a pair with an open direction (None) is "unknown"
VERDICTS = {
    (True, True): "equiparallel",
    (True, False): "left_below_strict",
    (False, True): "right_below_strict",
    (False, False): "incomparable",
}


def compare(
    f: MonotoneFn,
    g: MonotoneFn,
    config: SearchConfig = DEFAULT_CONFIG,
    allow_terms: bool = False,
    extra_relations: tuple[Relation, ...] = (),
) -> CompareVerdict:
    """Settle each direction, f from g and g from f, and read the verdict
    off VERDICTS: a separator settles it negatively, a mapping or term
    certificate positively, and a direction the levels refute gets no
    positive search.  Absence of a mapping is never a negative claim;
    evidence both ways raises SoundnessError; a skipped search leaves a
    note, each note once."""
    directions = ((f, g), (g, f))
    # the separator searches read both levels, so they run first: an
    # input past the coherence bound is refused before any mapping search
    outcomes = [find_separating_relation(lo, hi, config, extra_relations) for lo, hi in directions]
    levels = (p_level(f), p_level(g))
    notes: list[str] = []
    positive, negative, settled = [], [], []
    for (lo, hi), (p_lo, p_hi), outcome in zip(directions, (levels, levels[::-1]), outcomes):
        # a mapping would prove definability, which a level separator refutes
        refuted = level_separator(p_lo, p_hi) is not None
        pos = None if refuted else _positive(lo, hi, config, allow_terms, notes)
        neg = outcome.found and separation_certificate(lo, hi, outcome.found)
        if pos and neg:
            raise SoundnessError(
                f"both {lo.label} <= {hi.label} and its negation are certified"
            )
        positive.append(pos)
        negative.append(neg)
        settled.append(True if pos else False if neg else None)
    notes.extend(note for outcome in outcomes for note in outcome.skipped)

    relation = VERDICTS.get(tuple(settled), "unknown")
    if relation == "unknown":
        for (a, b), known in zip((("left", "right"), ("right", "left")), settled):
            if known is True:
                notes.append(f"{a} <= {b} established; reverse direction unresolved")
            elif known is False:
                notes.append(f"{a} not below {b} established; other direction open")
    evidence = tuple(c for c in positive + negative if c)
    return CompareVerdict(relation, evidence, tuple(dict.fromkeys(notes)))
