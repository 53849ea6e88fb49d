"""First-order applicative terms with one oracle slot.

A term denotes a function of declared arity once the oracle symbol is
bound to a concrete monotone function.  Every connective is itself a
monotone function held as a trace: the conditional with an
undefined-strict scrutinee, strict negation, the left-strict
conjunction and disjunction, and the all-arguments-equal probe that
returns the shared value or stays undefined.  Evaluation therefore
treats the oracle and the connectives alike: it tabulates the term over
all inputs at once by table lookup and rebuilds the trace (which also
proves the result monotone).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .config import DEFAULT_CONFIG, SearchConfig
from .errors import (
    BoundExceededError,
    FormatError,
    InapplicableError,
    TermArityError,
)
from .functions import (
    MonotoneFn,
    check_cells,
    check_nesting,
    entry,
    read_header,
    read_number,
    table_of,
    trace_from_table,
    validate_trace,
)
from .lattice import BOT, FF, TT, Tri

ORACLE = "g"


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Const:
    value: Tri


@dataclass(frozen=True)
class App:
    fn: str  # ORACLE, ALLEQ or a key of CONNECTIVES
    args: tuple["Node", ...]


Node = Union[Var, Const, App]


def _app(shared: dict, fn: str, args: tuple[Node, ...]) -> App:
    """The application of `fn` to `args` first made under `shared`,
    keyed by its symbol and its arguments' identities: over arguments
    that are one object when equal, so are the applications.  The
    callers keep their leaves in `shared` too, one object each, and it
    holds every node it returns, and so every argument, so no id in a
    key is reused while it lives."""
    key = (fn, *map(id, args))
    node = shared.get(key)
    if node is None:
        node = shared[key] = App(fn, args)
    return node


@dataclass(frozen=True)
class Term:
    arity: int
    root: Node


CONNECTIVES = {
    "ite": validate_trace(
        3, [entry("TT_", "T"), entry("TF_", "F"), entry("F_T", "T"), entry("F_F", "F")], "ite"
    ),
    "not": validate_trace(1, [entry("T", "F"), entry("F", "T")], "not"),
    "and": validate_trace(2, [entry("TT", "T"), entry("TF", "F"), entry("F_", "F")], "and"),
    "or": validate_trace(2, [entry("T_", "T"), entry("FT", "T"), entry("FF", "F")], "or"),
}
ALLEQ = "alleq"  # variadic, >= 1 argument


def alleq(n: int) -> MonotoneFn:
    """The all-arguments-equal probe over n arguments."""
    return validate_trace(n, [entry("T" * n, "T"), entry("F" * n, "F")], ALLEQ)


def eval_term(
    term: Term, oracle: MonotoneFn, config: SearchConfig = DEFAULT_CONFIG
) -> MonotoneFn:
    """Tabulate the term over all 3^k inputs at once, one trit column
    per distinct subterm: a variable is its coordinate of the (3,)*k
    cube, a constant is constant, and the oracle and the connectives
    alike look their table up at the codes the argument columns spell.
    Rebuilding the trace from the root column re-checks monotonicity
    rather than assuming it.  Each table built, the term's, the
    oracle's and each alleq's, is bounded by `table_bound` and then by
    the cell cap (`functions.check_cells`).

    Two phases.  One pre-order walk checks the term, each variable's
    index, each application's symbol and argument count, and an alleq's
    bound before the arguments under it, so the first fault in pre-order
    is the one raised; it numbers each distinct subterm in post-order,
    an application keyed by its symbol and its arguments' numbers, and a
    node object met again (terms from `parse_term` and `inline_oracle`
    share equal subtrees) is not walked again.  Then
    the columns are computed in that order, each once, and each is
    dropped after its last use."""

    def check_table(width: int, what: str) -> None:
        if width > config.table_bound:
            raise BoundExceededError(f"{what} above table bound {config.table_bound}")
        check_cells(width, what)

    k = term.arity
    check_table(k, f"term arity {k}")
    check_table(oracle.arity, f"oracle arity {oracle.arity}")

    @functools.cache  # each symbol and argument count checked and resolved once
    def function(symbol: str, n: int) -> MonotoneFn:
        if symbol == ORACLE:
            if n != oracle.arity:
                raise TermArityError(
                    f"oracle applied to {n} arguments, oracle arity is {oracle.arity}"
                )
            return oracle
        if symbol == ALLEQ:
            if not n:
                raise TermArityError(f"{ALLEQ} needs at least one argument")
            check_table(n, f"{ALLEQ} over {n} arguments")
            return alleq(n)
        fn = CONNECTIVES.get(symbol)
        if fn is None:
            raise TermArityError(f"unknown symbol {symbol!r}")
        if n != fn.arity:
            raise TermArityError(f"{symbol} takes {fn.arity} arguments, got {n}")
        return fn

    # step i computes subterm i from the earlier subterms `args`: a leaf
    # (Var or Const) from nothing, an application by its function's table
    ids: dict[object, int] = {}
    steps: list[tuple[object, tuple[int, ...]]] = []
    numbered: dict[int, int] = {}  # id of a node numbered without error -> its number

    def number(node: Node) -> int:
        if isinstance(node, App):
            op: object = function(node.fn, len(node.args))
            args = tuple(
                numbered[id(a)] if id(a) in numbered else number(a) for a in node.args
            )
            key: object = (node.fn, args)
        else:
            if isinstance(node, Var) and not 1 <= node.index <= k:
                raise TermArityError(f"variable x{node.index} outside 1..{k}")
            key, op, args = node, node, ()
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(steps)
            steps.append((op, args))
        numbered[id(node)] = i
        return i

    root = number(term.root)
    last_use = {a: i for i, (_, args) in enumerate(steps) for a in args}
    coords = np.indices((3,) * k, dtype=np.int8).reshape(k, -1)
    columns: dict[int, np.ndarray] = {}
    for i, (op, args) in enumerate(steps):
        if isinstance(op, Var):
            columns[i] = coords[op.index - 1]
        elif isinstance(op, Const):
            columns[i] = np.full(3**k, op.value, dtype=np.int8)
        else:
            columns[i] = table_of(op)[
                np.ravel_multi_index([columns[a] for a in args], (3,) * op.arity)
            ]
            for a in args:
                if last_use[a] == i:
                    columns.pop(a, None)
    return trace_from_table(k, columns[root])


def oracle_calls(node: Node) -> int:
    """How many oracle applications the term under `node` makes."""
    if isinstance(node, App):
        return (node.fn == ORACLE) + sum(oracle_calls(a) for a in node.args)
    return 0


def inline_oracle(outer: Term, inner: Term) -> Term:
    """Compose oracle terms: replace each oracle call of `outer` with
    the body of `inner`, binding inner's variables to the call's
    arguments.  Evaluating the result at oracle h equals evaluating
    `outer` at eval(inner, h).

    Equal subtrees of the result are one object (`_app`), and each
    node object of either term is rebuilt once per binding, so the
    result is built in the size of its distinct subterms, not of its
    tree."""
    shared: dict = {}

    def subst(node: Node, binding: tuple[Node, ...], done: dict[int, Node]) -> Node:
        if id(node) in done:
            return done[id(node)]
        if isinstance(node, Var):
            new = binding[node.index - 1]
        elif isinstance(node, Const):
            new = shared.setdefault(node, node)
        else:
            new = _app(shared, node.fn, tuple(subst(a, binding, done) for a in node.args))
        done[id(node)] = new
        return new

    walked: dict[int, Node] = {}

    def walk(node: Node) -> Node:
        if id(node) in walked:
            return walked[id(node)]
        if isinstance(node, (Var, Const)):
            new = shared.setdefault(node, node)
        else:
            args = tuple(walk(a) for a in node.args)
            if node.fn != ORACLE:
                new = _app(shared, node.fn, args)
            elif len(args) != inner.arity:
                raise TermArityError(
                    f"oracle call has {len(args)} arguments, inner term "
                    f"declares arity {inner.arity}"
                )
            else:
                new = subst(inner.root, args, {})
        walked[id(node)] = new
        return new

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
    if len(set(fn.outputs)) != 1:
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
# Term file format, after the header `functions.read_header` reads:
#   one prefix expression, e.g. (alleq (g x1 x2) (g x2 x3) (g x1 x3))
# ---------------------------------------------------------------------------

_ATOM_CONSTS = {"tt": Const(TT), "ff": Const(FF), "bot": Const(BOT)}
_CONST_NAMES = {c.value: name for name, c in _ATOM_CONSTS.items()}

_SYMBOLS = {ORACLE, ALLEQ, *CONNECTIVES}


def _parse_node(tokens: list[tuple[str, int]], pos: int, shared: dict) -> tuple[Node, int]:
    tok, lineno = tokens[pos]
    if tok == "(":
        if pos + 1 >= len(tokens):
            raise FormatError("unexpected end of term", tokens[-1][1])
        head, head_line = tokens[pos + 1]
        if head in ("(", ")"):
            raise FormatError(f"expected a symbol after '(', got {head!r}", head_line)
        if head not in _SYMBOLS:
            raise FormatError(f"unknown symbol {head!r}", head_line)
        args = []
        pos += 2
        while pos < len(tokens) and tokens[pos][0] != ")":
            node, pos = _parse_node(tokens, pos, shared)
            args.append(node)
        if pos >= len(tokens):
            raise FormatError("missing ')'", lineno)
        return _app(shared, head, tuple(args)), pos + 1
    if tok == ")":
        raise FormatError("unexpected ')'", lineno)
    if tok in _ATOM_CONSTS:
        return _ATOM_CONSTS[tok], pos + 1
    index = read_number(tok[1:], lineno) if tok.startswith("x") else None
    if index is not None:
        var = shared.get(index)
        if var is None:
            var = shared[index] = Var(index)
        return var, pos + 1
    raise FormatError(f"bad token {tok!r}", lineno)


def parse_term(text: str) -> Term:
    """Parse a term file; an error inside the expression names the line
    of the token it was raised at.  Nesting is bounded
    (`functions.NESTING_BOUND`), since parsing and evaluation recurse.
    Equal subtrees are parsed into one object (`_app`)."""
    arity, lines = read_header(text)
    tokens: list[tuple[str, int]] = []
    for lineno, line in lines:
        spaced = line.replace("(", " ( ").replace(")", " ) ")
        tokens.extend((tok, lineno) for tok in spaced.split())
    if not tokens:
        raise FormatError("term file has no expression")
    depth = 0
    for tok, lineno in tokens:
        if tok == "(":
            depth += 1
            check_nesting(depth, lineno)
        elif tok == ")":
            depth -= 1
    node, pos = _parse_node(tokens, 0, {})
    if pos != len(tokens):
        trailing = [tok for tok, _ in tokens[pos:]]
        raise FormatError(f"trailing tokens after term: {trailing}", tokens[pos][1])
    return Term(arity, node)


def format_node(node: Node) -> str:
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Const):
        return _CONST_NAMES[node.value]
    inner = " ".join(format_node(a) for a in node.args)
    return f"({node.fn} {inner})"


def format_term(term: Term) -> str:
    return f"arity {term.arity}\n{format_node(term.root)}\n"
