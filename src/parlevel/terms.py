"""First-order applicative terms with one oracle slot.

A term denotes a function of declared arity once the oracle symbol is
bound to a concrete monotone function; evaluation tabulates it over all
inputs and rebuilds the trace (which also proves the result monotone).
The built-in connectives are the conditional with an undefined-strict
scrutinee, strict negation, the left-strict conjunction/disjunction
encodings, and the all-arguments-equal probe that returns the shared
value or stays undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .config import DEFAULT_CONFIG, SearchConfig
from .errors import BoundExceededError, FormatError, InapplicableError, TermArityError
from .functions import (
    MonotoneFn,
    is_ascii_number,
    is_monovalued,
    table_of,
    trace_from_table,
)
from .lattice import BOT, FF, TT, Tri, all_tuples

ORACLE = "g"


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Const:
    value: Tri


@dataclass(frozen=True)
class App:
    fn: str  # ORACLE or a builtin name
    args: tuple["Node", ...]


Node = Union[Var, Const, App]


@dataclass(frozen=True)
class Term:
    arity: int
    root: Node


def _ite(c: int, a: int, b: int) -> int:
    if c == 0:
        return 0
    return a if c == 1 else b


def _not(a: int) -> int:
    return 0 if a == 0 else (2 if a == 1 else 1)


def _and(a: int, b: int) -> int:
    return _ite(a, b, 2)


def _or(a: int, b: int) -> int:
    return _ite(a, 1, b)


def _alleq(*args: int) -> int:
    v = args[0]
    if v != 0 and all(a == v for a in args):
        return v
    return 0


_BUILTINS = {
    "ite": (3, lambda a: _ite(*a)),
    "not": (1, lambda a: _not(*a)),
    "and": (2, lambda a: _and(*a)),
    "or": (2, lambda a: _or(*a)),
    "alleq": (None, lambda a: _alleq(*a)),  # variadic, >= 1
}


def validate_term(term: Term, oracle_arity: int) -> None:
    def walk(node: Node) -> None:
        if isinstance(node, Var):
            if not 1 <= node.index <= term.arity:
                raise TermArityError(
                    f"variable x{node.index} outside 1..{term.arity}"
                )
        elif isinstance(node, App):
            if node.fn == ORACLE:
                if len(node.args) != oracle_arity:
                    raise TermArityError(
                        f"oracle applied to {len(node.args)} arguments, "
                        f"oracle arity is {oracle_arity}"
                    )
            else:
                info = _BUILTINS.get(node.fn)
                if info is None:
                    raise TermArityError(f"unknown symbol {node.fn!r}")
                want, _ = info
                if want is not None and len(node.args) != want:
                    raise TermArityError(
                        f"{node.fn} takes {want} arguments, got {len(node.args)}"
                    )
                if want is None and not node.args:
                    raise TermArityError(f"{node.fn} needs at least one argument")
            for a in node.args:
                walk(a)

    walk(term.root)


def eval_term(
    term: Term, oracle: MonotoneFn, config: SearchConfig = DEFAULT_CONFIG
) -> MonotoneFn:
    """Tabulate the term pointwise and rebuild the trace; the rebuild
    re-checks monotonicity rather than assuming it."""
    k = term.arity
    if k > config.table_bound:
        raise BoundExceededError(
            f"term arity {k} above table bound {config.table_bound}"
        )
    validate_term(term, oracle.arity)
    otable = table_of(oracle)
    ok = oracle.arity

    def run(node: Node, env: tuple[int, ...]) -> int:
        if isinstance(node, Var):
            return env[node.index - 1]
        if isinstance(node, Const):
            return int(node.value)
        vals = [run(a, env) for a in node.args]
        if node.fn == ORACLE:
            code = 0
            for v in vals:
                code = code * 3 + v
            return otable[code]
        return _BUILTINS[node.fn][1](vals)

    table = [0] * 3**k
    for x in all_tuples(k):
        table[x.encode()] = run(term.root, tuple(int(v) for v in x.entries))
    return trace_from_table(k, table)


def inline_oracle(outer: Term, inner: Term) -> Term:
    """Compose oracle terms: replace each oracle call of `outer` with
    the body of `inner`, binding inner's variables to the call's
    arguments.  Evaluating the result at oracle h equals evaluating
    `outer` at eval(inner, h)."""

    def subst(node: Node, binding: tuple[Node, ...]) -> Node:
        if isinstance(node, Var):
            return binding[node.index - 1]
        if isinstance(node, Const):
            return node
        return App(node.fn, tuple(subst(a, binding) for a in node.args))

    def walk(node: Node) -> Node:
        if isinstance(node, (Var, Const)):
            return node
        args = tuple(walk(a) for a in node.args)
        if node.fn == ORACLE:
            if len(args) != inner.arity:
                raise TermArityError(
                    f"oracle call has {len(args)} arguments, inner term "
                    f"declares arity {inner.arity}"
                )
            return subst(inner.root, args)
        return App(node.fn, args)

    return Term(outer.arity, walk(outer.root))


# ---------------------------------------------------------------------------
# Constructions replayed from explicit definability proofs
# ---------------------------------------------------------------------------

def por_step_term(i: int) -> Term:
    """Term over an arity-i oracle computing the next rung of the
    near-unanimity family: the all-equal probe applied to the i+1
    leave-one-out oracle calls."""
    if i < 2:
        raise InapplicableError("step terms start at arity 2")
    k = i + 1
    calls = tuple(
        App(ORACLE, tuple(Var(c) for c in range(1, k + 1) if c != omit))
        for omit in range(1, k + 1)
    )
    return Term(k, App("alleq", calls))


def bg_rotation_terms(i: int) -> tuple[Term, Term]:
    """The two rotation terms exchanging adjacent output patterns within
    one bivalued cyclic family: forward = if g(x) then g(rotate-left x)
    else ff; backward = if g(x) then tt else g(rotate-right x)."""
    if i < 1:
        raise InapplicableError("rotation terms need i >= 1")
    k = 2 * i + 1
    xs = [Var(c) for c in range(1, k + 1)]
    left = tuple(xs[1:] + xs[:1])
    right = tuple(xs[-1:] + xs[:-1])
    direct = App(ORACLE, tuple(xs))
    m1 = Term(k, App("ite", (direct, App(ORACLE, left), Const(FF))))
    m2 = Term(k, App("ite", (direct, Const(TT), App(ORACLE, right))))
    return m1, m2


def mono_to_det_term(fn: MonotoneFn) -> Term:
    """Term computing a monovalued function from the any-argument-true
    detector of arity |trace|: one row-matcher per trace entry, each a
    left-strict conjunction of literals over the row's defined
    coordinates.  Functions that always return false are wrapped in a
    strict negation."""
    if not is_monovalued(fn):
        raise InapplicableError("construction applies to monovalued functions only")
    matchers = []
    for e in fn.entries:
        literals: list[Node] = []
        for c, v in enumerate(e.input.entries, start=1):
            if v == TT:
                literals.append(Var(c))
            elif v == FF:
                literals.append(App("not", (Var(c),)))
        if not literals:
            acc: Node = Const(TT)
        else:
            acc = literals[0]
            for lit in literals[1:]:
                acc = App("and", (acc, lit))
        matchers.append(acc)
    call: Node = App(ORACLE, tuple(matchers))
    if fn.entries[0].output == FF:
        call = App("not", (call,))
    return Term(fn.arity, call)


# ---------------------------------------------------------------------------
# Term file format:
#   'arity <k>' line, then one prefix expression, e.g.
#   (alleq (g x1 x2) (g x2 x3) (g x1 x3))
# ---------------------------------------------------------------------------

_ATOM_CONSTS = {"tt": Const(TT), "ff": Const(FF), "bot": Const(BOT)}


def _tokens(text: str) -> Iterator[str]:
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        yield tok


def _parse_node(tokens: list[str], pos: int) -> tuple[Node, int]:
    if pos >= len(tokens):
        raise FormatError("unexpected end of term")
    tok = tokens[pos]
    if tok == "(":
        if pos + 1 >= len(tokens):
            raise FormatError("unexpected end of term")
        head = tokens[pos + 1]
        if head in ("(", ")"):
            raise FormatError(f"expected a symbol after '(', got {head!r}")
        if head != ORACLE and head not in _BUILTINS:
            raise FormatError(f"unknown symbol {head!r}")
        args = []
        pos += 2
        while pos < len(tokens) and tokens[pos] != ")":
            node, pos = _parse_node(tokens, pos)
            args.append(node)
        if pos >= len(tokens):
            raise FormatError("missing ')'")
        return App(head, tuple(args)), pos + 1
    if tok == ")":
        raise FormatError("unexpected ')'")
    if tok in _ATOM_CONSTS:
        return _ATOM_CONSTS[tok], pos + 1
    if tok.startswith("x") and is_ascii_number(tok[1:]):
        return Var(int(tok[1:])), pos + 1
    raise FormatError(f"bad token {tok!r}")


def parse_term(text: str) -> Term:
    arity: int | None = None
    expr_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        words = line.split()
        if words[0] == "arity" and arity is None:
            if len(words) != 2 or not is_ascii_number(words[1]):
                raise FormatError(f"bad arity line {line!r}", lineno)
            arity = int(words[1])
            continue
        expr_lines.append(line)
    if arity is None or arity < 1:
        raise FormatError("term file needs an 'arity <k>' line with k >= 1")
    tokens = list(_tokens(" ".join(expr_lines)))
    if not tokens:
        raise FormatError("term file has no expression")
    node, pos = _parse_node(tokens, 0)
    if pos != len(tokens):
        raise FormatError(f"trailing tokens after term: {tokens[pos:]}")
    return Term(arity, node)


def format_node(node: Node) -> str:
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Const):
        return {BOT: "bot", TT: "tt", FF: "ff"}[node.value]
    inner = " ".join(format_node(a) for a in node.args)
    return f"({node.fn} {inner})"


def format_term(term: Term) -> str:
    return f"arity {term.arity}\n{format_node(term.root)}\n"
