"""The paper's degree table: `compare` on every ordered pair of the ten
functions of `scripts/degree_matrix.py`, with every separation witness
replayed from its certificate text."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from parlevel import InvarianceWitness, TriTuple, compare, parse_relation, zoo


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
