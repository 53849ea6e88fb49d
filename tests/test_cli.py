"""End-to-end command-line behavior: reports, round trips, exit codes."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parlevel
from parlevel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_zoo_bp_json(capsys):
    code, out, _ = run(capsys, "analyze", "zoo:bp", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["name"] == "bp"
    assert report["plevel"] == [2, 2]
    assert "stable" in report["classes"]
    assert report["degree_alias"] == "BP"


def test_analyze_zoo_ttdet_alias(capsys):
    code, out, _ = run(capsys, "analyze", "zoo:ttdet", "--json")
    report = json.loads(out)
    assert report["plevel"] == ["inf", 1]
    assert report["degree_alias"] == "DET"


def test_analyze_text_writes_the_level_as_plevel_does(capsys):
    code, out, _ = run(capsys, "analyze", "zoo:ttdet")
    assert code == 0
    assert out == (
        "ttdet: arity 2, trace size 2\n"
        "  cc = 2, bcc = inf, level = (inf, 1)\n"
        "  classes: unstable, monovalued, subsequential\n"
        "  degree alias: DET\n"
    )


def test_emit_then_analyze_roundtrip_byte_exact(capsys, tmp_path):
    path = tmp_path / "bg21.trace"
    code, _, _ = run(capsys, "zoo", "emit", "bg(2,1)", "-o", str(path))
    assert code == 0
    code, from_file, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    code, from_zoo, _ = run(capsys, "analyze", "zoo:bg(2,1)", "--json")
    assert code == 0
    assert from_file == from_zoo


def test_analyze_reports_trace_errors(capsys, tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("arity 2\n_T -> T\nTT -> T\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "comparable" in err.lower()


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "nope.trace")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "zoo:bp", "zoo:ttdet", "--relations", "{missing}"),
        ("invariance", "zoo:bp", "--relations", "{missing}"),
        ("term", "{missing}", "--oracle", "zoo:por_i(2)"),
        ("analyze", "{dir}"),
    ],
    ids=["compare-relations", "invariance-relations", "term-file", "analyze-dir"],
)
def test_unreadable_input_is_input_error(capsys, tmp_path, argv):
    paths = {"missing": tmp_path / "missing.txt", "dir": tmp_path}
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 3
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("zoo", "emit", "bp", "-o", "{nodir}/bp.trace"),
        ("term", "{termfile}", "--oracle", "zoo:por_i(2)", "-o", "{nodir}/out.trace"),
        ("compare", "zoo:bp", "zoo:ttdet", "--emit-cert", "{nodir}/certs.json"),
    ],
    ids=["zoo-emit", "term-output", "compare-emit-cert"],
)
def test_unwritable_output_is_input_error(capsys, tmp_path, argv):
    termfile = tmp_path / "step.term"
    termfile.write_text("arity 3\n(alleq (g x2 x3) (g x1 x3) (g x1 x2))\n")
    paths = {"nodir": tmp_path / "missing", "termfile": termfile}
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 3
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("analyze", "arity \u00b3\nT__ -> T\n"),
        ("analyze", "arityfoo 2\nT_ -> T\n"),
        ("term", "arity \u00b3\n(alleq (g x2 x3) (g x1 x3) (g x1 x2))\n"),
        ("term", "arity 3\n(alleq (g x\u00b2 x3) (g x1 x3) (g x1 x2))\n"),
    ],
    ids=["trace-superscript-arity", "trace-arityfoo", "term-superscript-arity",
         "term-superscript-variable"],
)
def test_malformed_number_is_input_error(capsys, tmp_path, command, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path)]
    if command == "term":
        argv += ["--oracle", "zoo:por_i(2)"]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error:")
    assert "Traceback" not in err


LONG = "9" * 5000


@pytest.mark.parametrize(
    "argv, text, line",
    [
        (["analyze", "{file}"], f"arity {LONG}\n", 1),
        (["term", "{file}", "--oracle", "zoo:ttdet"], f"arity 2\n(g x1\n x{LONG})\n", 3),
        (["invariance", "zoo:bp", "--relations", "{file}"], f"#\npreseq n={LONG} A= B=\n", 2),
        (["invariance", "zoo:bp", "--relation", f"seqrel n=3 {{A=1 B=1,{LONG}}}"], None, None),
        (["zoo", "emit", f"bg(2,{LONG})"], None, None),
    ],
    ids=["arity-line", "term-variable", "relation-arity", "relation-index", "zoo-parameter"],
)
def test_long_number_is_a_format_error(capsys, tmp_path, argv, text, line):
    """A number of more than the 4,300 digits int() reads is refused by
    the one number rule, with the line where the format has lines."""
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    code, _, err = run(capsys, *(a.format(file=path) if a == "{file}" else a for a in argv))
    assert code == 3
    where = f"line {line}: " if line else ""
    assert err == f"error: {where}number of 5000 digits above bound 4300\n"


@pytest.mark.parametrize(
    "argv, text, code, message",
    [
        (["invariance", "zoo:bp", "--relation", "preseq n=10000000 A= B=1"], None, 4,
         "invariance check needs ~10^14313637 states"),
        (["invariance", "{file}", "--relation", "preseq n=1 A= B="], "arity 100000000\n", 4,
         "invariance check needs ~10^47712125 states"),
        (["invariance", "zoo:bp", "--relation", "seqrel n=10000000 {A=1 B=1}"], None, 4,
         "relation enumeration needs ~10^4771212 states"),
        (["compare", "{file}", "zoo:bp"], "arity 100000000\n", 0, None),
        (["term", "{file}", "--oracle", "zoo:ttdet", "--table-bound", "100000000"],
         "arity 100000000\n(g x1)\n", 3,
         "term arity 100000000 needs 3^100000000 cells, above cell cap 100000000"),
    ],
    ids=["relation-arity", "function-arity", "composite-arity", "compare", "term-arity"],
)
def test_large_exponent_is_refused_before_its_power(capsys, tmp_path, argv, text, code, message):
    """A relation arity n, a function arity k or a table width is
    compared with what the limit admits before any 3^n, |R|^k or 3^k is
    computed, so each command ends at once (a count of more than 4,300
    digits is written ~10^E)."""
    path = tmp_path / "wide.trace"
    if text is not None:
        path.write_text(text)
    start = time.perf_counter()
    got, out, err = run(capsys, *(a.format(file=path) if a == "{file}" else a for a in argv))
    assert time.perf_counter() - start < 1
    assert got == code
    if message is None:
        assert err == "" and "strictly below" in out
    else:
        assert err.startswith(f"error: {message}")


def test_term_route_skips_families_past_the_parameter_bound(capsys, tmp_path):
    """An arity-101 trace is no por_i or bg instance, since the families
    stop at parameter 100: the term route does not build one to compare."""
    path = tmp_path / "wide.trace"
    path.write_text(f"arity 101\nT{'_' * 100} -> T\n")
    code, out, err = run(capsys, "compare", "zoo:bp", str(path), "--allow-terms")
    assert (code, err) == (0, "")
    assert "right is strictly below left" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["term", "{termfile}", "--oracle", "zoo:ttdet"],
        ["analyze", "zoo:" + "neg(" * 1200 + "bp" + ")" * 1200],
    ],
    ids=["term-file", "zoo-name"],
)
def test_deep_nesting_is_input_error(capsys, tmp_path, argv):
    termfile = tmp_path / "deep.term"
    termfile.write_text("arity 1\n" + "(not " * 1200 + "x1" + ")" * 1200 + "\n")
    code, _, err = run(capsys, *(a.format(termfile=termfile) for a in argv))
    assert code == 3
    assert err.startswith("error:") and "nesting" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariance", "zoo:bp", "--relation", "preseq n=3 A=\u0661 B=1,2"],
        ["invariance", "zoo:bp", "--relations", "{path}"],
        ["analyze", "zoo:por_i(\u0663)"],
    ],
    ids=["relation", "relations-file", "zoo-name"],
)
def test_non_ascii_digit_is_input_error(capsys, tmp_path, argv):
    path = tmp_path / "rels.txt"
    path.write_text("# c\nseqrel n=3 {A=\u0661 B=1,2}\n", encoding="utf-8")
    code, _, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 3
    assert err.startswith("error:")
    assert "Traceback" not in err
    if "--relations" in argv:
        assert "line 2" in err


def test_relation_enumeration_over_budget_exits_four(capsys):
    """A 17-ary relation has 3^17 tuples, above the default budget, so
    the check stops before enumerating them."""
    b = ",".join(str(i) for i in range(1, 18))
    code, _, err = run(capsys, "invariance", "zoo:bp", "--relation", f"preseq n=17 A= B={b}")
    assert code == 4
    assert "relation enumeration" in err


def test_coherence_bound_overrun_is_input_error(capsys, tmp_path):
    path = tmp_path / "nt21.trace"
    assert run(capsys, "zoo", "emit", "ntdet(21)", "-o", str(path))[0] == 0
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "coherence bound" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["zoo", "emit", "por_i(99999999999999999999)"],
        ["analyze", "zoo:gustave_i(99999999999999999999)"],
    ],
    ids=["emit", "analyze"],
)
def test_family_parameter_over_bound_is_input_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error:") and "above bound 100" in err


def test_empty_name_comment_leaves_the_file_stem(capsys, tmp_path):
    path = tmp_path / "unnamed.trace"
    path.write_text("# name:\narity 1\nT -> T\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert out.startswith("unnamed: arity 1, trace size 1\n")


SCRIPTS = Path(__file__).parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["-m", "parlevel.cli", "zoo", "list"],
    ["-m", "parlevel.cli", "verify", "plevels", "--json"],
    [str(SCRIPTS / "plevel_census.py"), "--arity", "1"],
    [str(SCRIPTS / "degree_matrix.py"), "--names", "bp,ttdet,det"],
], ids=["zoo-list", "verify-json", "census", "degree-matrix"])
def test_closed_stdout_exits_141_quietly(argv):
    """The pipe's read end is closed before the command starts, so its
    first write to stdout fails, in the command line and in both scripts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(parlevel.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("names", ["foo,bp", "por_i(100),bp"], ids=["unknown-name", "coherence-bound"])
def test_script_bad_input_is_one_error_line(names):
    """A script's input error goes through `run_to_stdout` as the command
    line's does: one `error:` line and exit 3, no traceback."""
    src = str(Path(parlevel.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "degree_matrix.py"), "--names", names],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_compare_resolved_exit_zero(capsys):
    code, out, _ = run(capsys, "compare", "zoo:bg(2,1)", "zoo:bg(1,1)")
    assert code == 0
    assert "strictly below" in out


def test_compare_unknown_exit_two(capsys):
    code, out, _ = run(capsys, "compare", "zoo:por_i(3)", "zoo:por_i(2)")
    assert code == 2
    assert "unresolved" in out


def test_compare_allow_terms_resolves(capsys):
    code, out, _ = run(
        capsys, "compare", "zoo:por_i(3)", "zoo:por_i(2)", "--allow-terms"
    )
    assert code == 0
    assert "left is strictly below right" in out


def test_compare_emits_certificates(capsys, tmp_path):
    cert_path = tmp_path / "certs.json"
    code, _, _ = run(
        capsys,
        "compare",
        "zoo:gustave",
        "zoo:ttdet",
        "--emit-cert",
        str(cert_path),
    )
    assert code == 0
    certs = json.loads(cert_path.read_text())
    kinds = {c["kind"] for c in certs}
    assert "bm_mapping" in kinds and "separation" in kinds
    assert all(c["verified"] for c in certs)


def test_invariance_command(capsys):
    code, out, _ = run(
        capsys,
        "invariance",
        "zoo:por_i(2)",
        "--relation",
        "preseq n=3 A=1,2,3 B=1,2,3",
        "--json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["invariant"] is False
    assert rows[0]["witness"]["output"].count("_") <= 3


def test_invariance_relations_file(capsys, tmp_path):
    rel_path = tmp_path / "rels.txt"
    rel_path.write_text(
        "preseq n=2 A=1 B=1,2\nseqrel n=3 {A=1,2 B=1,2} {A=1,2,3 B=1,2,3}\n"
    )
    code, out, _ = run(
        capsys, "invariance", "zoo:ttdet", "--relations", str(rel_path), "--json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["invariant"] for r in rows] == [True, True]


def test_invariance_budget_exit_four(capsys):
    code, _, err = run(
        capsys,
        "invariance",
        "zoo:bp",
        "--relation",
        "preseq n=3 A=1,2,3 B=1,2,3",
        "--budget",
        "5",
    )
    assert code == 4
    assert "budget" in err


def test_term_command(capsys, tmp_path):
    term_path = tmp_path / "step.term"
    term_path.write_text(
        "arity 3\n(alleq (g x2 x3) (g x1 x3) (g x1 x2))\n"
    )
    code, out, _ = run(
        capsys, "term", str(term_path), "--oracle", "zoo:por_i(2)", "--name", "step"
    )
    assert code == 0
    assert out.splitlines()[0] == "# name: step"
    code, por3_text, _ = run(capsys, "zoo", "emit", "por_i(3)")
    assert out.splitlines()[1:] == por3_text.splitlines()[1:]


@pytest.mark.parametrize(
    "arity, oracle, flags, message",
    [
        # an arity-40 oracle over the default table bound
        (1, "{wide}", [], "oracle arity 40 above table bound 6"),
        # 3^40 cells, more than an int64 index numbers, are above the cell
        # cap first: one cap text whatever the bound
        (40, "zoo:ttdet", ["--table-bound", "40"],
         "term arity 40 needs 3^40 cells, above cell cap 100000000"),
        # 3^30 cells would take 5.49 PiB of int64 codes: above the fixed cell cap
        (30, "zoo:ttdet", ["--table-bound", "30"],
         "term arity 30 needs 3^30 cells, above cell cap 100000000"),
    ],
    ids=["oracle-over-bound", "term-above-int64", "term-above-cell-cap"],
)
def test_oversized_table_is_input_error(capsys, tmp_path, arity, oracle, flags, message):
    wide = tmp_path / "wide.trace"
    wide.write_text("arity 40\nT" + "_" * 39 + " -> T\n")
    termfile = tmp_path / "t.term"
    args = " x1" * 40 if arity == 1 else " x1 x2"
    termfile.write_text(f"arity {arity}\n(g{args})\n")
    start = time.perf_counter()
    code, _, err = run(
        capsys, "term", str(termfile), "--oracle", oracle.format(wide=wide), *flags
    )
    assert time.perf_counter() - start < 2
    assert code == 3
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["term", "{termfile}", "--oracle", "zoo:ttdet", "--json"],
        ["invariance", "zoo:bp", "--relation", "preseq n=3 A=1 B=1,2", "--max-rel-arity", "3"],
        ["compare", "zoo:bp", "zoo:ttdet", "--max-rel-arity", "5"],
        ["verify", "plevels", "--max-rel-arity", "5"],
        # verify runs each suite at its own fixed settings
        ["verify", "plevels", "--budget", "5"],
        ["verify", "plevels", "--table-bound", "5"],
    ],
    ids=["term-json", "invariance-max-rel-arity", "compare-max-rel-arity",
         "verify-max-rel-arity", "verify-budget", "verify-table-bound"],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, tmp_path, argv):
    termfile = tmp_path / "t.term"
    termfile.write_text("arity 1\n(not x1)\n")
    code, out, err = run(capsys, *[a.format(termfile=termfile) for a in argv])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "zoo:bp", "zoo:bp", "--budgte", "5"],
         "unrecognized arguments: --budgte 5"),
        (["compare", "zoo:bp", "zoo:bp", "--budget", "1_0"],
         "argument --budget: not a number in ASCII digits: '1_0'"),
        (["compare", "zoo:bp", "zoo:bp", "--budget", "\uff15"],
         "argument --budget: not a number in ASCII digits: '\uff15'"),
        (["invariance", "zoo:bp", "--relation", "preseq n=3 A=1 B=1,2", "--budget", "-5"],
         "argument --budget: not a number in ASCII digits: '-5'"),
        (["term", "t.term", "--oracle", "zoo:ttdet", "--table-bound", "9" * 5000],
         "argument --table-bound: number of 5000 digits above bound 4300"),
        (["compare", "zoo:bp"], "the following arguments are required: right"),
    ],
    ids=["misspelt-flag", "underscore", "fullwidth-digit", "negative", "5000-digits",
         "missing-positional"],
)
def test_malformed_command_line_is_an_input_error(capsys, argv, message):
    """One `error:` line and exit 3, like any other input error; exit 2
    is left to an unknown verdict."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: parlevel compare")


def test_zoo_list(capsys):
    code, out, _ = run(capsys, "zoo", "list")
    assert code == 0
    assert "bp" in out and "por_i" in out


def test_zoo_emit_stdout_deterministic(capsys):
    code, first, _ = run(capsys, "zoo", "emit", "bp")
    code, second, _ = run(capsys, "zoo", "emit", "bp")
    assert first == second
    assert first == "# name: bp\narity 3\n_TF -> T\nTF_ -> F\nF_T -> F\n"


def test_verify_plevels_suite(capsys):
    code, out, _ = run(capsys, "verify", "plevels")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "plevels", "--json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["passed"] for r in rows)


def test_huge_state_count_is_a_budget_error(capsys):
    """All 3^3100 tuples belong to S^3100 with A = B = {}, so checking a
    ternary function needs 3^9300 states, a figure of 4,438 digits."""
    code, _, err = run(capsys, "invariance", "zoo:bp", "--relation", "preseq n=3100 A= B=")
    assert code == 4
    assert err == "error: invariance check needs ~10^4437 states, budget allows 100000000\n"


@pytest.mark.parametrize(
    "name, relation, what, states",
    [
        # all 3^14 tuples belong to S^14 with A = B = {}: 3^42 selections
        ("bp", "preseq n=14 A= B=", "invariance check", 3**42),
        # a composite's member count is known only after listing its 3^8 tuples
        ("gustave_i(2)", "seqrel n=8 {A= B=}", "invariance check", 3**40),
        # and listing 3^40 tuples is refused before it starts
        ("bp", "seqrel n=40 {A=1 B=1,2}", "relation enumeration", 3**40),
    ],
)
def test_count_above_int64_is_a_bound_error(capsys, name, relation, what, states):
    """No int64 index numbers more than 2^63 selections or tuple codes,
    so such a search is refused up front, whatever the budget: a fixed
    limit, exit 3, named in the message."""
    assert states > 2**63
    start = time.perf_counter()
    code, _, err = run(
        capsys, "invariance", f"zoo:{name}", "--relation", relation,
        "--budget", "1000000000000000000000",
    )
    assert time.perf_counter() - start < 2
    assert code == 3
    assert err == f"error: {what} needs {states} states, above 2^63\n"


def test_listing_above_cell_cap_is_a_bound_error(capsys):
    """S^30 with A = B = {} holds all 3^30 tuples, under the raised budget
    for a unary function, but listing them would take 187 TiB: the fixed
    cell cap refuses it whatever the budget, exit 3."""
    start = time.perf_counter()
    code, _, err = run(
        capsys, "invariance", "zoo:ntdet(1)", "--relation", "preseq n=30 A= B=",
        "--budget", "1000000000000000",
    )
    assert time.perf_counter() - start < 2
    assert code == 3
    assert err == "error: relation enumeration needs 3^30 cells, above cell cap 100000000\n"


def padded_bp(path: Path, arity: int) -> Path:
    """bp's trace with arity - 3 dummy arguments: bp's level, a wider table."""
    pad = "_" * (arity - 3)
    path.write_text(f"arity {arity}\n_TF{pad} -> T\nTF_{pad} -> F\nF_T{pad} -> F\n")
    return path


def test_function_table_above_cell_cap_is_a_bound_error(capsys, tmp_path):
    """A 25-ary function under S^1 with A = B = {} (3 members) needs 3^25
    states, under the raised budget, but its table would take 789 GiB:
    the fixed cell cap refuses it whatever the budget, exit 3, and
    `compare` skips such a relation with that note.  bp padded to arity
    25 has bp's level, so the chain relations bp's level does not
    predict are searched, on the padded side too."""
    trace = tmp_path / "big25.trace"
    trace.write_text(f"arity 25\nT{'_' * 24} -> T\n")
    bp25 = padded_bp(tmp_path / "bp25.trace", 25)
    refusal = "function table needs 3^25 cells, above cell cap 100000000"
    start = time.perf_counter()
    code, _, err = run(
        capsys, "invariance", str(trace), "--relation", "preseq n=1 A= B=",
        "--budget", "1000000000000",
    )
    assert code == 3
    assert err == f"error: {refusal}\n"
    code, out, err = run(
        capsys, "compare", "zoo:bp", str(bp25), "--budget", "1000000000000", "--json",
    )
    assert time.perf_counter() - start < 2
    assert code == 0 and "Traceback" not in err
    chain3 = "seqrel n=3 {A=1,2 B=1,2} {A=1,2,3 B=1,2,3}"
    assert f"{chain3}: skipped ({refusal})" in json.loads(out)["notes"]


def test_function_table_is_refused_before_the_relation_is_listed(capsys, tmp_path):
    """The table cap reads only the function's arity, so an arity-17
    function is refused before the 3^16 tuples of S^16 with A = {} are
    walked for their three members."""
    trace = tmp_path / "t17.trace"
    trace.write_text(f"arity 17\nT{'_' * 16} -> T\n")
    wide = "seqrel n=16 {A= B=%s}" % ",".join(map(str, range(1, 17)))
    start = time.perf_counter()
    code, _, err = run(
        capsys, "invariance", str(trace), "--relation", wide, "--budget", "1000000000",
    )
    assert time.perf_counter() - start < 2
    assert code == 3
    assert err == "error: function table needs 3^17 cells, above cell cap 100000000\n"


def test_compare_skips_name_the_cap_not_the_budget(capsys, tmp_path):
    """Under a budget of 10^30, the arity-17 right side's invariance
    under S^3_{3,3} needs about 3.0e22 states, within the budget but past
    what an int64 index numbers, and bp padded to arity 17 needs a 3^17
    cell table under the chain relations, above the cell cap: both kinds
    of skip note quote the fixed limit, and the verdicts and
    certificates stand."""
    trace = tmp_path / "t17.trace"
    trace.write_text(f"arity 17\nT{'_' * 16} -> T\n")
    code, out, err = run(
        capsys, "compare", "zoo:por_i(2)", str(trace), "--json",
        "--budget", "1000000000000000000000000000000",
    )
    assert code == 0 and err == ""
    verdict = json.loads(out)
    assert verdict["relation"] == "right_below_strict"
    [mapping, separation] = verdict["evidence"]
    assert mapping["kind"] == "bm_mapping" and mapping["verified"]
    assert mapping["payload"]["mapping"] == [["T________________ -> T", "_T -> T"]]
    assert separation["kind"] == "separation" and separation["verified"]
    assert separation["payload"]["relation"] == "preseq n=3 A=1,2,3 B=1,2,3"
    assert separation["payload"]["invariant_side"] == {
        "function": "t17", "method": "level", "states": 30041942495081691894741
    }
    assert verdict["notes"] == [
        "preseq n=3 A=1,2,3 B=1,2,3: invariant side skipped (invariance check needs "
        "30041942495081691894741 states, above 2^63), justified by level instead",
    ]
    # t17 respects every pool relation by level; bp padded to arity 17 does not
    code, out, err = run(
        capsys, "compare", "zoo:bp", str(padded_bp(tmp_path / "bp17.trace", 17)), "--json",
        "--budget", "1000000000000000000000000000000",
    )
    assert code == 0 and err == ""
    verdict = json.loads(out)
    assert verdict["relation"] == "equiparallel"
    assert verdict["notes"] == [
        f"{chain}: skipped (function table needs 3^17 cells, above cell cap 100000000)"
        for chain in (
            "seqrel n=3 {A=1,2 B=1,2} {A=1,2,3 B=1,2,3}",
            "seqrel n=4 {A=1,2 B=1,2} {A=1,2,3 B=1,2,3} {A=1,2,3,4 B=1,2,3,4}",
            "seqrel n=5 {A=1,2 B=1,2} {A=1,2,3 B=1,2,3} {A=1,2,3,4 B=1,2,3,4} "
            "{A=1,2,3,4,5 B=1,2,3,4,5}",
        )
    ]


def test_compare_reports_huge_state_count(capsys, tmp_path):
    """por_i(2) breaks S^3_{3,3}, and the arity-5000 right side's
    invariance under it would take 21^5000 states, a 6,612-digit figure."""
    n = 5000
    trace = tmp_path / "wide.trace"
    trace.write_text(
        f"arity {n}\n"
        f"TT{'_' * (n - 2)} -> T\nT_T{'_' * (n - 3)} -> T\n"
        f"_TT{'_' * (n - 3)} -> T\n{'F' * n} -> F\n"
    )
    cert_path = tmp_path / "certs.json"
    code, out, err = run(
        capsys, "compare", "zoo:por_i(2)", str(trace), "--json", "--emit-cert", str(cert_path)
    )
    assert code == 2
    assert "Traceback" not in err
    note = (
        "preseq n=3 A=1,2,3 B=1,2,3: invariant side skipped (invariance check "
        "needs ~10^6611 states, budget allows 100000000), justified by level instead"
    )
    assert note in json.loads(out)["notes"]
    [cert] = json.loads(cert_path.read_text())
    assert cert["payload"]["invariant_side"] == {
        "function": "wide", "method": "level", "states": "~10^6611"
    }
    code, out, _ = run(capsys, "compare", "zoo:por_i(2)", str(trace))
    assert code == 2
    assert f"note: {note}" in out


# 4,000 to 6,000 digits: on both sides of the 4,300 that int() reads
LONG_NUMBER = st.builds(lambda d, n: str(d) * n, st.integers(1, 9), st.integers(4000, 6000))
LARGE_NUMBER = st.one_of(
    LONG_NUMBER, st.integers(17, 4300).map(lambda n: "9" * n), st.integers(17, 10**12).map(str)
)


def all_total(k):
    """Trace text of arity k with every row of T and F mapped to T:
    2^k pairwise incoherent entries."""
    rows = "".join("".join(t) + " -> T\n" for t in itertools.product("TF", repeat=k))
    return f"arity {k}\n{rows}"


@st.composite
def sized_commands(draw):
    """A command line and the text of its one input file (or None),
    built around a large number, a long sum, a raised table bound or a
    trace of thousands of entries; `{file}` in the command stands for
    the file's path and `{term}` for a one-line term file."""
    n = draw(LARGE_NUMBER)
    summands = draw(st.integers(2, 400))
    atom = draw(st.sampled_from(["bp", "ttdet", "por_i(3)", "sum(bp,det)", "neg(gustave)"]))
    return draw(st.sampled_from([
        (["analyze", "{file}"], f"arity {n}\n"),
        (["analyze", "{file}"], all_total(draw(st.integers(10, 12)))),
        (["invariance", "{file}", "--relation", "preseq n=1 A= B="], f"arity {n}\n"),
        (["compare", "{file}", "zoo:bp"], f"arity {n}\n"),
        (["compare", "zoo:bp", "zoo:ttdet", "--budget", n], None),
        (["invariance", "zoo:bp", "--relation", "preseq n=3 A=1 B=1,2", "--budget", n], None),
        (["compare", "zoo:bp", "{file}", "--allow-terms", "--table-bound", n], f"arity {n}\n"),
        (["term", "{file}", "--oracle", "zoo:ttdet", "--table-bound", n], f"arity {n}\n(g x1)\n"),
        (["term", "{file}", "--oracle", "zoo:ttdet"], f"arity 2\n(g x1 x{n})\n"),
        (["invariance", "zoo:bp", "--relation", f"preseq n={n} A= B=1"], None),
        (["invariance", "{file}", "--relation", f"seqrel n={n} {{A=1 B=1,2}}"], f"arity {n}\n"),
        (["invariance", "zoo:bp", "--relations", "{file}"], f"preseq n=3 A= B=1,{n}\n"),
        (["zoo", "emit", f"por_i({n})"], None),
        (["analyze", f"zoo:bg({n},1)"], None),
        (["compare", f"zoo:por_i({n})", "zoo:por_i(2)", "--allow-terms", "--table-bound", n], None),
        (["zoo", "emit", "+".join([atom] * summands)], None),
        (["analyze", "zoo:" + "sum(bp," * min(summands, 199) + atom + ")" * min(summands, 199)],
         None),
        (["zoo", "emit", "neg(" * min(summands, 199) + "bg(100,1)" + ")" * min(summands, 199)],
         None),
        (["compare", f"zoo:por_i({summands % 12 + 2})", "zoo:por_i(2)", "--allow-terms",
          "--table-bound", n], None),
    ]))


def _timeout(signum, frame):
    raise TimeoutError


@settings(max_examples=100, deadline=None)
@given(sized_commands())
@example((["analyze", "{file}"], f"arity {'9' * 5000}\n"))
@example((["zoo", "emit", "neg(" * 199 + "bg(100,1)" + ")" * 199], None))
@example((["analyze", "{file}"], all_total(12)))
@example((["compare", "{file}", "zoo:bp"], all_total(12)))
@example((["invariance", "{file}", "--relation", "preseq n=1 A= B="], all_total(12)))
@example((["term", "{term}", "--oracle", "{file}"], all_total(12)))
def test_oversized_inputs_exit_with_a_code(tmp_path_factory, command):
    """Numbers past what int() reads, at each of the five places input
    text is read as a number (arity lines, term variables, relation
    arities and indices, family parameters, flag values), long sums,
    deep neg( nesting, raised table bounds and budgets, and traces of up
    to 4,096 entries: each command finishes within 2 s, exits 0, 2, 3
    or 4, and lets no exception out."""
    argv, text = command
    folder = tmp_path_factory.mktemp("sized")
    path, term = folder / "input", folder / "one.term"
    if text is not None:
        path.write_text(text)
    term.write_text("arity 1\n(g x1)\n")
    argv = [{"{file}": str(path), "{term}": str(term)}.get(a, a) for a in argv]
    handler = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(2)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except TimeoutError:
        code = "still running after 2 s"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert code in (0, 2, 3, 4)
