"""Spans around calls into parlevel's layers, for the traced run.

`Tracer.install` wraps the public functions of each module under
`src/parlevel/` and rebinds every module namespace that imported them
(for example `definability.find_separating_relation` and
`suites.is_invariant`), so calls between layers are caught as well as
calls from the benchmark.  One span is kept per wrapped call: name,
start, end, parent span and item id.  Spans stay in memory; the
arguments and results they hold are only looked at after the timed
phase, when `layer_metrics` derives the counts, so the wrappers
themselves do no more than take two timestamps.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute) of the wrapped callable
WRAPPED = {
    "relations.invariance": ("parlevel.relations", "invariance_counterexample"),
    "relations.member_matrix": ("parlevel.relations", "member_matrix"),
    "relations.separator": ("parlevel.relations", "find_separating_relation"),
    "plevels.coherent_scan": ("parlevel.plevels", "min_coherent_subset"),
    "plevels.classify": ("parlevel.plevels", "classify"),
    "functions.table_of": ("parlevel.functions", "table_of"),
    "functions.parse_trace": ("parlevel.functions", "parse_trace"),
    "definability.compare": ("parlevel.definability", "compare"),
    "definability.bm_search": ("parlevel.definability", "bm_search"),
    "definability.check_bm": ("parlevel.definability", "check_bm"),
    "terms.eval_term": ("parlevel.terms", "eval_term"),
    "terms.parse_term": ("parlevel.terms", "parse_term"),
    "zoo.make": ("parlevel.zoo", "make"),
}
VALIDATE = "functions.validate"  # MonotoneFn.__post_init__

# span record fields
NAME, START, END, PARENT, ITEM, ARGS, KWARGS, RESULT, ERROR = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1  # -1 while setting up
        self.undo: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.table_of_info = None

    def _wrap(self, name: str, original):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item,
                      args, kwargs, None, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                record[RESULT] = original(*args, **kwargs)
                return record[RESULT]
            except Exception as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        import parlevel  # noqa: F401  (loads every submodule)
        from parlevel.functions import MonotoneFn

        for name, (module, attr) in WRAPPED.items():
            original = getattr(sys.modules[module], attr)
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "parlevel" or mod_name.startswith("parlevel.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        post_init = MonotoneFn.__post_init__
        self.originals[VALIDATE] = post_init
        self.undo.append((MonotoneFn, "__post_init__", post_init))
        MonotoneFn.__post_init__ = self._wrap(VALIDATE, post_init)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self.undo):
            setattr(owner, key, value)
        self.undo.clear()

    def start_phase(self) -> None:
        self.table_of_info = self.originals["functions.table_of"].cache_info()

    def end_phase(self) -> None:
        before = self.table_of_info
        after = self.originals["functions.table_of"].cache_info()
        self.table_of_info = (after.hits - before.hits, after.misses - before.misses)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], s[ITEM]]))
                out.write("\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _arg(record, index: int, key: str, default=None):
    args, kwargs = record[ARGS], record[KWARGS]
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _combo_rank(indices: list[int], m: int) -> int:
    """Position of an ascending index tuple in itertools.combinations order."""
    rank, prev, size = 0, -1, len(indices)
    for slot, idx in enumerate(indices):
        for skipped in range(prev + 1, idx):
            rank += math.comb(m - 1 - skipped, size - 1 - slot)
        prev = idx
    return rank


def _scan_subsets(record) -> int:
    """Subsets min_coherent_subset visited: every size below the answer's
    and, within its size, the combinations up to and including it."""
    if record[ERROR] is not None:
        return 0
    fn = record[ARGS][0]
    bivalued = _arg(record, 1, "bivalued")
    m = fn.trace_size
    start = 3 if bivalued else 2
    found = record[RESULT]
    if found is None:
        return sum(math.comb(m, s) for s in range(start, m + 1))
    position = {e.input: i for i, e in enumerate(fn.entries)}
    indices = sorted(position[t] for t in found)
    below = sum(math.comb(m, s) for s in range(start, len(found)))
    return below + _combo_rank(indices, m) + 1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    by_name = defaultdict(list)
    self_s = defaultdict(float)
    for idx, s in enumerate(spans):
        # zoo.make runs while the inputs are built; every other layer is
        # counted over the timed phase only
        if s[ITEM] >= 0 or s[NAME] == "zoo.make":
            by_name[s[NAME]].append(s)
            self_s[s[NAME]] += s[END] - s[START] - child[idx]

    def duration(records) -> float:
        return sum(s[END] - s[START] for s in records)

    member_matrix = tracer.originals["relations.member_matrix"]
    inv = by_name["relations.invariance"]
    inv_ran = [s for s in inv if s[ERROR] is None]
    inv_states = sum(len(member_matrix(s[ARGS][1])) ** s[ARGS][0].arity for s in inv_ran)
    default_config = sys.modules["parlevel.config"].DEFAULT_CONFIG
    inv_keys = {
        (s[ARGS][0], s[ARGS][1], _arg(s, 2, "config", default_config).budget)
        for s in inv
    }
    sep = by_name["relations.separator"]
    scan = by_name["plevels.coherent_scan"]
    scan_subsets = sum(_scan_subsets(s) for s in scan)
    bm = by_name["definability.bm_search"]
    bm_ran = [s for s in bm if s[ERROR] is None]
    check = by_name["definability.check_bm"]
    ev = by_name["terms.eval_term"]
    ev_cells = sum(3 ** s[ARGS][0].arity for s in ev if s[ERROR] is None)
    hits, misses = tracer.table_of_info

    return {
        "relations.invariance.calls": len(inv),
        "relations.invariance.self_s": self_s["relations.invariance"],
        "relations.invariance.states": inv_states,
        "relations.invariance.states_per_s": _ratio(inv_states, duration(inv_ran)),
        "relations.invariance.distinct_frac": _ratio(len(inv_keys), len(inv)),
        "relations.invariance.skipped": sum(
            s[ERROR] == "BudgetExceededError" for s in inv),
        "relations.member_matrix.self_s": self_s["relations.member_matrix"],
        "relations.separator.calls": len(sep),
        "relations.separator.self_s": self_s["relations.separator"],
        "relations.separator.found_frac": _ratio(
            sum(s[ERROR] is None and s[RESULT].found is not None for s in sep), len(sep)),
        "plevels.coherent_scan.calls": len(scan),
        "plevels.coherent_scan.self_s": self_s["plevels.coherent_scan"],
        "plevels.coherent_scan.subsets": scan_subsets,
        "plevels.coherent_scan.subsets_per_s": _ratio(scan_subsets, duration(scan)),
        "plevels.classify.self_s": self_s["plevels.classify"],
        "functions.validate.calls": len(by_name[VALIDATE]),
        "functions.validate.self_s": self_s[VALIDATE],
        "functions.table_of.hit_frac": _ratio(hits, hits + misses),
        "functions.table_of.self_s": self_s["functions.table_of"],
        "functions.parse_trace.self_s": self_s["functions.parse_trace"],
        "definability.compare.self_s": self_s["definability.compare"],
        "definability.bm_search.calls": len(bm),
        "definability.bm_search.self_s": self_s["definability.bm_search"],
        "definability.bm_search.found_frac": _ratio(
            sum(s[RESULT] is not None for s in bm_ran), len(bm)),
        "definability.bm_search.skipped": sum(
            s[ERROR] in ("BudgetExceededError", "BoundExceededError") for s in bm),
        "definability.bm_search.raw_states": sum(
            s[ARGS][1].trace_size ** s[ARGS][0].trace_size for s in bm_ran),
        "definability.check_bm.calls": len(check),
        "definability.check_bm.self_s": self_s["definability.check_bm"],
        "definability.check_bm.subsets": sum(
            2 ** s[ARGS][0].source.trace_size for s in check),
        "terms.eval_term.calls": len(ev),
        "terms.eval_term.self_s": self_s["terms.eval_term"],
        "terms.eval_term.cells": ev_cells,
        "terms.eval_term.cells_per_s": _ratio(ev_cells, duration(ev)),
        "terms.parse_term.self_s": self_s["terms.parse_term"],
        "zoo.make.self_s": self_s["zoo.make"],
        "trace.overhead_frac": overhead_frac,
    }
