"""Command-line front end.

Exit codes: 0 resolved verdict / pass, 1 verification failures,
2 unknown comparison verdict, 3 input error, 4 budget exceeded,
141 (128 + SIGPIPE) standard output closed by its reader.

Exit 4 is only a count above the `--budget` given (BudgetExceededError),
which a larger budget would let run; every other limit exits 3 like any
input error.  The fixed bounds (functions.COHERENCE_BOUND,
functions.RECURSION_BOUND, plevels.ENUMERATION_BOUND, the cell cap of
functions.check_cells, the 2^63 index limit) and `--table-bound` raise
BoundExceededError, and every budgeted search checks them before its
budget, so input that is refused at every budget exits 3.  A term
file or function name nested past functions.NESTING_BOUND, a family
parameter above zoo.PARAM_BOUND, a name of more than zoo.SUM_BOUND
summands, or a number of more than errors.DIGIT_LIMIT digits, is a
FormatError, as is a malformed command line (a flag number is read by
functions.read_number); only `-h` exits from argparse itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .config import DEFAULT_CONFIG, SearchConfig
from .definability import compare
from .errors import AnalysisError, BudgetExceededError, FormatError
from .functions import MonotoneFn, format_trace, parse_trace, read_number
from .plevels import classify
from .relations import (
    format_relation,
    invariance_counterexample,
    parse_relation,
    parse_relation_file,
)
from .suites import SUITES, run_suite
from .terms import eval_term, parse_term
from .zoo import list_names, make


def _read(path: str) -> str:
    """Text of an input file; one that cannot be read is an input error."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise AnalysisError(f"cannot read {path}: {reason}") from None


def _write(path: str, text: str) -> None:
    """Write an output file; one that cannot be written is an input error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise AnalysisError(f"cannot write {path}: {exc.strerror}") from None


def _load_function(source: str) -> MonotoneFn:
    if source.startswith("zoo:"):
        return make(source[4:])
    fn = parse_trace(_read(source))
    if fn.name is None:
        fn = fn.renamed(Path(source).stem)
    return fn


def _config_from(args: argparse.Namespace) -> SearchConfig:
    """DEFAULT_CONFIG with each SearchConfig field the command's flags set."""
    updates = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(SearchConfig)
        if getattr(args, field.name, None) is not None
    }
    return dataclasses.replace(DEFAULT_CONFIG, **updates)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_analyze(args: argparse.Namespace) -> int:
    fn = _load_function(args.input)
    report = classify(fn)
    if args.json:
        _print_json(report.to_json_dict())
        return 0
    print(f"{report.name}: arity {report.arity}, trace size {report.trace_size}")
    print(f"  cc = {report.cc}, bcc = {report.bcc}, level = {report.plevel}")
    print(f"  classes: {', '.join(report.classes) or '-'}")
    print(f"  degree alias: {report.degree_alias}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    left = _load_function(args.left)
    right = _load_function(args.right)
    cfg = _config_from(args)
    extra = ()
    if args.relations:
        extra = tuple(parse_relation_file(_read(args.relations)))
    verdict = compare(
        left, right, cfg, allow_terms=args.allow_terms, extra_relations=extra
    )
    if args.emit_cert:
        _write(
            args.emit_cert,
            json.dumps([c.to_json_dict() for c in verdict.evidence], indent=2) + "\n",
        )
    if args.json:
        _print_json(verdict.to_json_dict())
    else:
        wording = {
            "equiparallel": "left and right are equiparallel",
            "left_below_strict": "left is strictly below right",
            "right_below_strict": "right is strictly below left",
            "incomparable": "left and right are incomparable",
            "unknown": "relationship unresolved within bounds",
        }
        print(f"{left.label} vs {right.label}: {wording[verdict.relation]}")
        for cert in verdict.evidence:
            print(f"  [{cert.kind}] {cert.claim()}")
        for note in verdict.notes:
            print(f"  note: {note}")
    return 0 if verdict.relation != "unknown" else 2


def cmd_invariance(args: argparse.Namespace) -> int:
    fn = _load_function(args.input)
    cfg = _config_from(args)
    if args.relation:
        rels = [parse_relation(args.relation)]
    else:
        rels = parse_relation_file(_read(args.relations))
    rows = []
    for rel in rels:
        witness = invariance_counterexample(fn, rel, cfg)
        rows.append((rel, witness))
    if args.json:
        _print_json(
            [
                {
                    "relation": format_relation(rel),
                    "invariant": witness is None,
                    "witness": None
                    if witness is None
                    else {
                        "inputs": [t.text for t in witness.inputs],
                        "output": witness.output.text,
                    },
                }
                for rel, witness in rows
            ]
        )
        return 0
    for rel, witness in rows:
        if witness is None:
            print(f"{fn.label} is invariant under {format_relation(rel)}")
        else:
            print(f"{fn.label} is NOT invariant under {format_relation(rel)}")
            for t in witness.inputs:
                print(f"    {t.text}")
            print(f" -> {witness.output.text}")
    return 0


def cmd_term(args: argparse.Namespace) -> int:
    term = parse_term(_read(args.termfile))
    oracle = _load_function(args.oracle)
    result = eval_term(term, oracle, _config_from(args))
    if args.name:
        result = result.renamed(args.name)
    text = format_trace(result)
    if args.output:
        _write(args.output, text)
    else:
        print(text, end="")
    return 0


def cmd_zoo(args: argparse.Namespace) -> int:
    if args.zoo_command == "list":
        for line in list_names():
            print(line)
        return 0
    fn = make(args.name)
    text = format_trace(fn)
    if args.output:
        _write(args.output, text)
    else:
        print(text, end="")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    if args.json:
        _print_json(
            [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ]
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            suffix = f"  ({r.detail})" if r.detail and not r.passed else ""
            print(f"{status}  {r.name}{suffix}")
        failed = sum(1 for r in results if not r.passed)
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 1


class Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are input errors, exit 3
    (subparsers take the same class)."""

    def error(self, message):
        raise AnalysisError(message)


def flag_number(text: str) -> int:
    """A flag's number, read by the rule every number in the input follows."""
    try:
        value = read_number(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value is None:
        raise argparse.ArgumentTypeError(f"not a number in ASCII digits: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="parlevel",
        description=(
            "Analyze first-order monotone boolean functions: invariance "
            "levels, class membership, and definability certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--json": dict(action="store_true", help="machine-readable output"),
        "--budget": dict(type=flag_number, help="brute-force state budget"),
        "--table-bound": dict(type=flag_number, help="max arity for full-table evaluation"),
    }

    def add_flags(p, *names):  # only the flags the command reads
        for name in names:
            p.add_argument(name, **flags[name])

    p = sub.add_parser("analyze", help="classify a function (trace file or zoo:NAME)")
    p.add_argument("input")
    add_flags(p, "--json")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("compare", help="compare two functions for definability")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--allow-terms", action="store_true",
                   help="also try term-template certificates")
    p.add_argument("--relations", help="file of extra relations to try")
    p.add_argument("--emit-cert", help="write evidence certificates to PATH")
    add_flags(p, "--json", "--budget", "--table-bound")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("invariance", help="check invariance under relations")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--relation", help="one relation, e.g. 'preseq n=3 A=1,2 B=1,2,3'")
    group.add_argument("--relations", help="file with one relation per line")
    add_flags(p, "--json", "--budget")
    p.set_defaults(fn=cmd_invariance)

    p = sub.add_parser("term", help="evaluate a term file at an oracle function")
    p.add_argument("termfile")
    p.add_argument("--oracle", required=True, help="trace file or zoo:NAME")
    p.add_argument("--name", help="label for the resulting function")
    p.add_argument("-o", "--output", help="write the resulting trace here")
    add_flags(p, "--table-bound")
    p.set_defaults(fn=cmd_term)

    p = sub.add_parser("zoo", help="list named functions or emit a trace file")
    zsub = p.add_subparsers(dest="zoo_command", required=True)
    zp = zsub.add_parser("list", help="print names and parameter ranges")
    zp.set_defaults(fn=cmd_zoo, zoo_command="list")
    zp = zsub.add_parser("emit", help="write the exact trace of a named function")
    zp.add_argument("name")
    zp.add_argument("-o", "--output", help="write to a file instead of stdout")
    zp.set_defaults(fn=cmd_zoo, zoo_command="emit")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=["all", *SUITES],
    )
    add_flags(p, "--json")
    p.set_defaults(fn=cmd_verify)

    return parser


def run_to_stdout(run: Callable[[], int]) -> int:
    """Exit code of `run()`; an analysis error is one `error:` line on
    stderr and exit 4 for a count above the budget, 3 for any other,
    and a reader of stdout that has gone is exit 141."""
    try:
        try:
            code = run()
        except AnalysisError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 4 if isinstance(exc, BudgetExceededError) else 3
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # stop quietly, with stdout on the null device so that the
        # interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def main(argv: list[str] | None = None) -> int:
    def run() -> int:
        args = build_parser().parse_args(argv)
        return args.fn(args)

    return run_to_stdout(run)


if __name__ == "__main__":
    sys.exit(main())
