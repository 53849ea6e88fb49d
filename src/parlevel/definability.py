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
from typing import Iterable, Iterator

from .config import DEFAULT_CONFIG, SearchConfig
from .errors import (
    BoundExceededError,
    BudgetExceededError,
    InapplicableError,
    SoundnessError,
    state_figure,
)
from .functions import MonotoneFn, check_cells
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


def check_bm(mapping: BMMapping) -> bool:
    """Exact check over ALL source subsets (coherence is not closed
    under subsets, so minimal subsets alone would not do): each image is
    a coherent set of two or more target entries, and source entries
    with different outputs keep different outputs.  The listing refuses
    a source above `functions.COHERENCE_BOUND`."""
    src, tgt = mapping.source, mapping.target
    assignment, src_tt, tgt_tt = mapping.assignment, src.tt_mask, tgt.tt_mask
    for mask in src.coherent_subsets:
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
        if image.bit_count() < 2 or not mask_coherent(image, tgt.planes):
            return False
        if outs_tt & outs_ff:
            return False
    return True


def bm_search(
    f: MonotoneFn, g: MonotoneFn, config: SearchConfig = DEFAULT_CONFIG
) -> BMMapping | None:
    """Depth-first search for a valid trace mapping f -> g.  Source
    entries are assigned in order; each node builds one bitmask of the
    targets its entry may take and descends into its set bits in
    ascending order.  Two rules build the mask, and each drops only
    targets that no passing completion uses, so the first hit is the
    first passing assignment in lexicographic order:

    - polarity: an entry's polarity is its target output xor its source
      output.  The output condition holds exactly when polarity is
      constant on every coherent subset with both source outputs, and
      so on their connected unions; an entry whose union's lowest entry
      is already assigned may take only targets of one output;
    - image: for each coherent subset whose highest entry is this one,
      the image of the rest plus the target must be coherent and have
      two or more entries (worked out from `g.planes` once per image).

    The source's coherent subsets are listed first, so a source above
    `functions.COHERENCE_BOUND` is refused before the |g|^|f| count
    meets the budget.  One pass over the masks buckets them by highest
    entry and joins the polarity classes; the image rule's tuples for a
    depth are built when the DFS first reaches it, so a search that
    fails shallow builds few of them.  The hit is re-verified by
    `check_bm`.  None means no mapping exists (the search is
    exhaustive) -- which licenses NO negative conclusion."""
    subsets = f.coherent_subsets
    m, n = f.trace_size, g.trace_size
    raw = n**m
    if raw > config.budget:
        raise BudgetExceededError(raw, config.budget, what="mapping search")

    src_tt = f.tt_mask
    tied = [1 << d for d in range(m)]  # the entries sharing d's polarity

    def first_reach(depth: int) -> Iterator[tuple[int, ...]]:
        # the entries below `depth` of each coherent subset it tops, made
        # when the search first iterates them; the list replaces this
        # generator, so a later node reads it at no cost
        parts = lower_parts[depth] = []
        for mask in by_top[depth]:
            parts.append(tuple([d for d in range(depth) if mask >> d & 1]))
        yield from parts

    by_top: list[list[int]] = [[] for _ in range(m)]  # the masks by highest entry
    lower_parts: list[Iterable[tuple[int, ...]]] = [()] * m  # the image rule's, per depth
    for mask in subsets:
        top = mask.bit_length() - 1
        if not by_top[top]:
            lower_parts[top] = first_reach(top)
        by_top[top].append(mask)
        if mask & src_tt and mask & ~src_tt:
            union = 0
            for d in range(m):
                if mask >> d & 1:
                    union |= tied[d]
            for d in range(m):
                if union >> d & 1:
                    tied[d] = union
    roots = [(mask & -mask).bit_length() - 1 for mask in tied]
    flips = [(src_tt >> d ^ src_tt >> root) & 1 for d, root in enumerate(roots)]

    everything = (1 << n) - 1
    tgt_tt = g.tt_mask
    by_output = (everything & ~tgt_tt, tgt_tt)

    @functools.cache
    def extensions(image: int) -> int:
        # the targets t for which image | t is coherent with two or more entries
        allowed = everything if image & image - 1 else everything & ~image
        for bot, tt, ff in g.planes:
            if not image & bot:
                if image & tt:
                    allowed &= ~ff
                if image & ff:
                    allowed &= ~tt
        return allowed

    assignment = [0] * m

    def dfs(depth: int) -> bool:
        if depth == m:
            return True
        root = roots[depth]
        if root < depth:
            allowed = by_output[(tgt_tt >> assignment[root] & 1) ^ flips[depth]]
        else:
            allowed = everything
        for lower in lower_parts[depth]:
            image = 0
            for d in lower:
                image |= 1 << assignment[d]
            allowed &= extensions(image)
        while allowed:
            low = allowed & -allowed
            assignment[depth] = low.bit_length() - 1
            if dfs(depth + 1):
                return True
            allowed ^= low
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
    route's budget count is 3^k cells for each oracle call of that
    term, the product of the steps' calls: an upper bound on the work,
    as evaluation computes each distinct subterm once.  A count above
    the budget is a BudgetExceededError, raised before the chain is
    inlined and after the cell cap on the source's table
    (`check_cells`)."""
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
    check_cells(f.arity, f"term arity {f.arity}")
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
