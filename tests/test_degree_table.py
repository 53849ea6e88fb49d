"""The paper's degree table: `compare` on every ordered pair of the ten
functions of `scripts/degree_matrix.py`, with every separation witness
replayed from its certificate text."""

from __future__ import annotations

import collections
import importlib.util
import itertools
from pathlib import Path

import parlevel.definability as definability
from parlevel import (
    DEFAULT_CONFIG,
    InvarianceWitness,
    TriTuple,
    bm_search,
    chain_relation,
    compare,
    level_separator,
    p_level,
    parse_relation,
    zoo,
)


def _script_names() -> list[str]:
    path = Path(__file__).resolve().parent.parent / "scripts" / "degree_matrix.py"
    spec = importlib.util.spec_from_file_location("degree_matrix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DEFAULT_NAMES


NAMES = (
    "lsand",
    "gustave_i(2)",
    "gustave_i(1)",
    "bg(2,1)",
    "bg(1,1)",
    "ttdet",
    "det",
    "bp+ttdet",
    "por_i(3)",
    "por_i(2)",
)

# Row = left operand, column = right operand, both in NAMES order.
# "<" left strictly below, ">" right strictly below, "=" equiparallel,
# "#" incomparable.
PAPER_TABLE = (
    "=<<<<<<<<<",  # lsand
    ">=<<<<<<<<",  # gustave_i(2)
    ">>=#<<<<<<",  # gustave_i(1)
    ">>#=<##<<<",  # bg(2,1)
    ">>>>=##<#<",  # bg(1,1)
    ">>>##==<<<",  # ttdet
    ">>>##==<<<",  # det
    ">>>>>>>=#<",  # bp+ttdet
    ">>>>#>>#=<",  # por_i(3)
    ">>>>>>>>>=",  # por_i(2)
)
VERDICT = {
    "<": "left_below_strict",
    ">": "right_below_strict",
    "=": "equiparallel",
    "#": "incomparable",
}
# por_i(3) is definable from por_i(2) through a term, which only
# `allow_terms=True` looks for; without it the other direction's
# separation is found and this one stays open.
UNDECIDED = {("por_i(3)", "por_i(2)"), ("por_i(2)", "por_i(3)")}


def replay(cert) -> bool:
    payload = cert.payload
    witness = InvarianceWitness(
        parse_relation(payload["relation"]),
        tuple(TriTuple.from_text(text) for text in payload["witness_inputs"]),
        TriTuple.from_text(payload["witness_output"]),
    )
    return witness.verify(cert.source)


def test_degree_table_agrees_with_the_paper():
    assert tuple(_script_names()) == NAMES
    fns = {name: zoo.make(name) for name in NAMES}
    replayed = 0
    for left, row in zip(NAMES, PAPER_TABLE):
        for right, cell in zip(NAMES, row):
            verdict = compare(fns[left], fns[right])
            expected = "unknown" if (left, right) in UNDECIDED else VERDICT[cell]
            assert verdict.relation == expected, (left, right)
            for cert in verdict.evidence:
                if cert.kind == "separation":
                    assert replay(cert), (left, right, cert.payload)
                    replayed += 1
    assert replayed > 0


def test_compare_runs_no_mapping_search_the_levels_refute(monkeypatch):
    """A mapping proves definability, which a level separator refutes:
    of the 200 directions, the 98 the levels refute get no mapping
    search."""
    searched = []

    def recording(f, g, config=DEFAULT_CONFIG):
        searched.append((f, g))
        return bm_search(f, g, config)

    monkeypatch.setattr(definability, "bm_search", recording)
    fns = [zoo.make(name) for name in NAMES]
    for left, right in itertools.product(fns, repeat=2):
        compare(left, right)
    assert len(searched) == 102
    assert not any(level_separator(p_level(f), p_level(g)) for f, g in searched)


def test_degree_table_notes():
    """The pool searches no relation the left function respects by
    level, so the only skipped relation notes left are eight of chain5,
    whose searches need more than the budget on the arity-4 and arity-5
    functions (a cell whose two directions skip it the same way notes it
    once); the level route notes ten invariant sides it could not
    search, and the two por_i cells note their open direction."""
    chain5 = f"{chain_relation(5)}: skipped ("
    kinds = collections.Counter()
    fns = {name: zoo.make(name) for name in NAMES}
    for left, right in itertools.product(NAMES, repeat=2):
        for note in compare(fns[left], fns[right]).notes:
            if note.startswith(chain5):
                kinds["chain5 skipped"] += 1
            elif note.endswith("justified by level instead"):
                kinds["level route"] += 1
            else:
                kinds["open direction"] += 1
                assert note.endswith("established; other direction open"), note
    assert kinds == {"chain5 skipped": 8, "level route": 10, "open direction": 2}
