import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degenums
from degenums.algorithms import AlgorithmTable, SequenceSpec, build_table
from degenums.audit import IdentityResult, MatrixAuditResult, PrintedEntry
from degenums.cli import OutputRecord, main
from degenums.exact import LAM, ONE, ZERO, LambdaPoly, format_rat, parse_rat
from degenums.numbers import (
    bell_deg_sequence,
    bernoulli_deg_sequence,
    euler_deg_sequence,
    stirling2_table,
)
from degenums.series import StirlingTable

F = Fraction


def run_cli(capsys, *argv):
    try:
        status = main(list(argv))
    except SystemExit as exc:  # argparse's own usage errors
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run_cli(capsys, *argv)
    return status, json.loads(out), err


# -- numbers ---------------------------------------------------------------------


def test_numbers_bernoulli_symbolic(capsys):
    status, doc, _ = run_json(capsys, "numbers", "bernoulli", "--nmax", "2")
    assert status == 0
    assert doc["kind"] == "number_table"
    assert doc["payload"]["values"] == ["1", "-1/2 + 1/2*L", "1/6 + -1/6*L^2"]
    assert doc["payload"]["lambda"] is None


def test_numbers_euler_at_lambda_zero(capsys):
    status, doc, _ = run_json(capsys, "numbers", "euler", "--nmax", "1", "--lambda", "0")
    assert status == 0
    assert doc["payload"]["values"] == ["1", "-1/2"]
    assert doc["payload"]["lambda"] == "0"


def test_numbers_stirling2_triangle(capsys):
    status, doc, _ = run_json(capsys, "numbers", "stirling2", "--nmax", "2")
    assert status == 0
    rows = doc["payload"]["rows"]
    assert rows[2][1] == "1 + -1*L"
    assert [len(r) for r in rows] == [1, 2, 3]


def test_numbers_all_families(capsys):
    for family in ("bernoulli", "euler", "bell", "bernoulli_at_one",
                   "euler_at_one", "stirling1", "stirling2"):
        status, doc, _ = run_json(capsys, "numbers", family, "--nmax", "3")
        assert status == 0
        assert doc["kind"] == "number_table"


def test_numbers_unknown_family_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["numbers", "fibonacci"])
    assert exc.value.code == 2


def test_numbers_negative_nmax(capsys):
    status, _, err = run_cli(capsys, "numbers", "bernoulli", "--nmax", "-1")
    assert status == 2
    assert "nonnegative" in err


def test_numbers_nmax_ceiling(capsys):
    status, out, err = run_cli(capsys, "numbers", "bernoulli", "--nmax", "201")
    assert (status, out) == (2, "")
    assert "--nmax must be in 0..200" in err
    status, _, _ = run_cli(capsys, "numbers", "stirling1", "--nmax", "201", "--lambda", "1/2")
    assert status == 2


# -- matrix ----------------------------------------------------------------------


def test_matrix_rows_ceiling(capsys):
    status, out, err = run_cli(capsys, "matrix", "B", "--rows", "201")
    assert (status, out) == (2, "")
    assert "--rows must be in 0..200" in err
    status, _, err = run_cli(capsys, "matrix", "A", "--rows", "-1")
    assert status == 2 and "nonnegative" in err


def test_matrix_half_rows1(capsys):
    status, doc, _ = run_json(capsys, "matrix", "B", "--seed", "half", "--rows", "1")
    assert status == 0
    assert doc["kind"] == "matrix"
    assert doc["payload"]["table"] == [["1", "1/2"], ["-1/2"]]


def test_matrix_bernoulli_rows0(capsys):
    status, doc, _ = run_json(capsys, "matrix", "B", "--seed", "bernoulli", "--rows", "0")
    assert status == 0
    assert doc["payload"]["table"] == [["1"]]


def test_matrix_lambda_substitution(capsys):
    status, doc, _ = run_json(
        capsys, "matrix", "A", "--seed", "half", "--rows", "2", "--lambda", "1/2"
    )
    assert status == 0
    assert doc["payload"]["table"][2][0] == "-1/4"


def test_matrix_flat_format(capsys):
    status, out, _ = run_cli(
        capsys, "matrix", "B", "--seed", "half", "--rows", "1", "--format", "flat"
    )
    assert status == 0
    assert out == "0\t0\t1\n0\t1\t1/2\n1\t0\t-1/2\n"


def test_matrix_decimal_lambda_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["numbers", "euler", "--lambda", "0.5"])
    assert exc.value.code == 2


# -- custom seeds -----------------------------------------------------------------


def test_matrix_custom_seed(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text("1\n1/2\n1/4\n1/8\n", encoding="utf-8")
    status, doc, _ = run_json(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "3",
        "--custom-file", str(path),
    )
    assert status == 0
    assert doc["payload"]["seed"] == "custom"
    assert [len(row) for row in doc["payload"]["table"]] == [4, 3, 2, 1]


def test_matrix_custom_seed_matches_bundled(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text("1\n1/2\n1/4\n1/8\n", encoding="utf-8")
    _, doc_custom, _ = run_json(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "3",
        "--custom-file", str(path),
    )
    _, doc_half, _ = run_json(capsys, "matrix", "B", "--seed", "half", "--rows", "3")
    assert doc_custom["payload"]["table"] == doc_half["payload"]["table"]


def test_matrix_custom_seed_with_polynomials(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text("1 + -1*L\n2\n1/3*L^2\n", encoding="utf-8")
    status, doc, _ = run_json(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "2",
        "--custom-file", str(path),
    )
    assert status == 0
    assert doc["payload"]["table"][0] == ["1 + -1*L", "2", "1/3*L^2"]


def test_matrix_custom_seed_too_short(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text("1\n1/2\n", encoding="utf-8")
    status, _, err = run_cli(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "4",
        "--custom-file", str(path),
    )
    assert status == 2
    assert "need at least 5" in err


def test_matrix_custom_seed_unreadable(capsys):
    status, _, err = run_cli(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "1",
        "--custom-file", "/no/such/file.txt",
    )
    assert status == 2
    assert "cannot read custom seed file" in err


def test_matrix_custom_seed_not_utf8(tmp_path, capsys):
    path = tmp_path / "seed.bin"
    path.write_bytes(b"1\n\xff\xfe\n")
    status, out, err = run_cli(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "1",
        "--custom-file", str(path),
    )
    assert status == 2
    assert out == ""
    assert f"cannot read custom seed file {str(path)!r}" in err


def test_matrix_custom_seed_malformed_line(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text("1\n0.5\n", encoding="utf-8")
    status, _, err = run_cli(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "1",
        "--custom-file", str(path),
    )
    assert status == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "text, bad",
    [
        ("1\r\n\x0c2\x853\r\n\r4\u20285\x1c\x1d\n6\v0.5\n7\n", 11),
        # the CRLF of line 2731 straddles the reader's first 8192 bytes
        (" \r\n" * 5000 + "1\r\n0.5\r\n", 5002),
    ],
    ids=["mixed_breaks", "crlf_across_a_chunk"],
)
def test_matrix_custom_seed_line_numbers_follow_splitlines(tmp_path, capsys, text, bad):
    # the file is read line by line, but its lines are numbered as
    # str.splitlines numbers the whole text: CRLF is one break, and form
    # feed, NEL, the line separator and the other breaks it knows end a line
    assert text.splitlines().index("0.5") + 1 == bad
    path = tmp_path / "seed.txt"
    path.write_bytes(text.encode("utf-8"))
    status, out, err = run_cli(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "9",
        "--custom-file", str(path),
    )
    assert status == 2
    assert out == ""
    assert f"custom seed file {str(path)!r}, line {bad}:" in err


def test_matrix_custom_seed_noncanonical_line(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text("1\n2/4\n", encoding="utf-8")
    status, _, err = run_cli(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "1",
        "--custom-file", str(path),
    )
    assert status == 2
    assert "line 2" in err and "not in canonical form" in err


@pytest.mark.parametrize("power", ["201", "1000000", "99999999999999999999", "0000201"])
def test_matrix_custom_seed_degree_above_the_rows_ceiling(tmp_path, capsys, power):
    # rejected from the text, before parse builds a coefficient list that long
    path = tmp_path / "seed.txt"
    path.write_text(f"1\n\n1*L^{power}\n", encoding="utf-8")
    status, out, err = run_cli(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "1",
        "--custom-file", str(path),
    )
    assert status == 2 and out == ""
    assert f"custom seed file {str(path)!r}, line 3" in err
    assert "degree in L must be at most 200" in err


def test_matrix_custom_seed_degree_at_the_rows_ceiling(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text("1\n1*L^200\n", encoding="utf-8")
    status, out, _ = run_cli(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "1",
        "--custom-file", str(path), "--format", "flat",
    )
    assert status == 0 and "-1*L^200" in out


@pytest.mark.parametrize("fmt", ["structured", "flat"])
@pytest.mark.parametrize(
    "tail", ["0.5\n", "1*L^201\n", "2/4\n1\n"], ids=["decimal", "over_degree", "noncanonical"]
)
def test_matrix_custom_seed_reads_only_the_entries_it_uses(tmp_path, capsys, fmt, tail):
    # --rows 2 reads entries 0..2; the lines after entry 2 are not parsed
    head = "1\n\n1/2 + -1*L\n1/3*L^2\n"
    outs = []
    for name, text in (("cut.txt", head), ("long.txt", head + tail)):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        status, out, err = run_cli(
            capsys, "matrix", "A", "--seed", "custom", "--rows", "2",
            "--custom-file", str(path), "--format", fmt,
        )
        assert (status, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


def test_custom_file_flag_consistency(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text("1\n", encoding="utf-8")
    status, _, err = run_cli(capsys, "matrix", "B", "--seed", "custom", "--rows", "0")
    assert status == 2 and "custom" in err
    status, _, err = run_cli(
        capsys, "matrix", "B", "--rows", "0", "--custom-file", str(path)
    )
    assert status == 2 and "custom" in err


# -- verify ------------------------------------------------------------------------


def test_verify_passes(capsys):
    status, doc, err = run_json(capsys, "verify", "--nmax", "6", "--order", "6")
    assert status == 0
    assert doc["kind"] == "identity_report"
    assert doc["payload"]["all_pass"] is True
    assert err == ""


def test_verify_degenerate_run(capsys):
    status, doc, _ = run_json(capsys, "verify", "--nmax", "0", "--order", "0")
    assert status == 0
    assert doc["payload"]["all_pass"] is True


def test_verify_fault_injection_names_identity(capsys):
    status, doc, err = run_json(
        capsys, "verify", "--nmax", "4", "--order", "4",
        "--inject-fault", "bell_series_match",
    )
    assert status == 1
    assert "bell_series_match" in err
    failing = [r for r in doc["payload"]["results"] if not r["pass"]]
    assert [r["name"] for r in failing] == ["bell_series_match"]


def test_verify_ceilings(capsys):
    status, _, err = run_cli(capsys, "verify", "--nmax", "31", "--order", "4")
    assert status == 2 and "0..30" in err
    status, _, err = run_cli(capsys, "verify", "--nmax", "4", "--order", "31")
    assert status == 2


# -- audit -------------------------------------------------------------------------


def test_audit_exit_zero_and_contains_findings(capsys):
    status, doc, _ = run_json(capsys, "audit")
    assert status == 0
    assert doc["kind"] == "audit_report"
    entries = doc["payload"]["entries"]
    half20 = next(
        e for e in entries
        if (e["matrix"], e["row"], e["col"]) == ("half_powers_B", 2, 0)
    )
    assert (half20["printed"], half20["recomputed"]) == ("0", "1/2*L")
    assert half20["match"] is False
    bern11 = next(
        e for e in entries
        if (e["matrix"], e["row"], e["col"]) == ("bernoulli_B", 1, 1)
    )
    assert bern11["match"] is True
    assert doc["payload"]["mismatch_count"] > 0


def test_audit_byte_identical_runs(capsys):
    _, out1, _ = run_cli(capsys, "audit")
    _, out2, _ = run_cli(capsys, "audit")
    assert out1.encode() == out2.encode()
    _, flat1, _ = run_cli(capsys, "audit", "--format", "flat")
    _, flat2, _ = run_cli(capsys, "audit", "--format", "flat")
    assert flat1.encode() == flat2.encode()


def test_audit_flat_format(capsys):
    status, out, _ = run_cli(capsys, "audit", "--format", "flat")
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 41
    assert any(line.startswith("half_powers_B\t2\t0\t0\t1/2*L\tfalse") for line in lines)


# -- payload round-trips and substitution commutation --------------------------------


def test_polynomial_payloads_round_trip(capsys):
    _, doc, _ = run_json(capsys, "numbers", "bernoulli", "--nmax", "6")
    for text in doc["payload"]["values"]:
        assert LambdaPoly.parse(text).render() == text
    _, doc, _ = run_json(capsys, "matrix", "A", "--seed", "bell", "--rows", "5")
    for row in doc["payload"]["table"]:
        for text in row:
            assert LambdaPoly.parse(text).render() == text
    _, doc, _ = run_json(capsys, "audit")
    for e in doc["payload"]["entries"]:
        assert LambdaPoly.parse(e["printed"]).render() == e["printed"]
        assert LambdaPoly.parse(e["recomputed"]).render() == e["recomputed"]


@pytest.mark.parametrize("flag, q", [("--lam", "-3/7"), ("--l", "-3/7"), ("--lam", "1/2")])
def test_lambda_abbreviation_takes_value(flag, q, capsys):
    for argv in (["numbers", "bernoulli", "--nmax", "4"], ["matrix", "A", "--rows", "3"]):
        status, out, err = run_cli(capsys, *argv, flag, q)
        assert (status, err) == (0, "")
        assert out == run_cli(capsys, *argv, f"--lambda={q}")[1]


@pytest.mark.parametrize("q", ["0", "1/2", "-1", "-3/7"])
def test_lambda_substitution_commutes(q, capsys):
    lam = parse_rat(q)
    _, symbolic, _ = run_json(capsys, "numbers", "bernoulli", "--nmax", "6")
    _, evaluated, _ = run_json(capsys, "numbers", "bernoulli", "--nmax", "6", "--lambda", q)
    substituted = [
        LambdaPoly.parse(text).eval_at(lam) for text in symbolic["payload"]["values"]
    ]
    assert [parse_rat(v) for v in evaluated["payload"]["values"]] == substituted

    _, symbolic, _ = run_json(capsys, "matrix", "B", "--seed", "half", "--rows", "4")
    _, evaluated, _ = run_json(
        capsys, "matrix", "B", "--seed", "half", "--rows", "4", "--lambda", q
    )
    for sym_row, eval_row in zip(symbolic["payload"]["table"], evaluated["payload"]["table"]):
        assert [parse_rat(v) for v in eval_row] == [
            LambdaPoly.parse(text).eval_at(lam) for text in sym_row
        ]

    _, symbolic, _ = run_json(capsys, "numbers", "stirling2", "--nmax", "5")
    _, evaluated, _ = run_json(capsys, "numbers", "stirling2", "--nmax", "5", "--lambda", q)
    for sym_row, eval_row in zip(symbolic["payload"]["rows"], evaluated["payload"]["rows"]):
        assert [parse_rat(v) for v in eval_row] == [
            LambdaPoly.parse(text).eval_at(lam) for text in sym_row
        ]


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("seeds")


_COMMANDS = [
    ["numbers", family]
    for family in ("bernoulli", "euler", "bell", "bernoulli_at_one", "euler_at_one",
                   "stirling1", "stirling2")
] + [
    ["matrix", kind, "--seed", seed]
    for kind in ("A", "B")
    for seed in ("bernoulli", "half", "bell", "custom")
]
_seed_polys = st.lists(
    st.lists(st.fractions(-9, 9, max_denominator=9), max_size=4).map(LambdaPoly),
    min_size=11,
    max_size=11,
)


@pytest.mark.parametrize("command", _COMMANDS, ids=" ".join)
@settings(deadline=None, max_examples=15)
@given(
    lam=st.fractions(min_value=-4, max_value=4, max_denominator=9),
    size=st.integers(0, 10),
    custom=_seed_polys,
)
def test_lambda_output_is_the_evaluated_symbolic_output(command, seed_dir, lam, size, custom):
    # --lambda runs the recurrences at lam; its output must read exactly as
    # the symbolic output with every cell evaluated at lam.
    argv = command + ["--nmax" if command[0] == "numbers" else "--rows", str(size)]
    if "custom" in command:
        path = seed_dir / "seed.txt"
        path.write_text("".join(p.render() + "\n" for p in custom), encoding="utf-8")
        argv += ["--custom-file", str(path)]

    def at_lam(text):
        return format_rat(LambdaPoly.parse(text).eval_at(lam))

    runs = {}
    for fmt in ("structured", "flat"):
        for lam_flag in ([], [f"--lambda={format_rat(lam)}"]):
            status, out, err = _capture(argv + ["--format", fmt] + lam_flag)
            assert (status, err) == (0, "")
            runs[fmt, bool(lam_flag)] = out

    doc = json.loads(runs["structured", False])
    payload = doc["payload"]
    payload["lambda"] = format_rat(lam)
    if "values" in payload:
        payload["values"] = [at_lam(text) for text in payload["values"]]
    else:
        key = "table" if command[0] == "matrix" else "rows"
        payload[key] = [[at_lam(text) for text in row] for row in payload[key]]
    assert runs["structured", True] == json.dumps(doc, indent=2) + "\n"

    flat = []
    for line in runs["flat", False].splitlines():
        index, text = line.rsplit("\t", 1)
        flat.append(f"{index}\t{at_lam(text)}\n")
    assert runs["flat", True] == "".join(flat)


# -- the writers -----------------------------------------------------------------------


def _seed_file(tmp_path, text):
    path = tmp_path / "seed.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _flat_from_doc(doc):
    # the flat rows the structured record describes
    p = doc["payload"]
    if "values" in p:
        return "".join(f"{n}\t{v}\n" for n, v in enumerate(p["values"]))
    if doc["kind"] in ("number_table", "matrix"):
        table = p["table"] if doc["kind"] == "matrix" else p["rows"]
        return "".join(f"{n}\t{k}\t{v}\n" for n, row in enumerate(table) for k, v in enumerate(row))
    if doc["kind"] == "identity_report":
        return "".join(f"{r['name']}\t{r['max_tested']}\t{json.dumps(r['pass'])}\n"
                       for r in p["results"])
    return "".join(
        f"{e['matrix']}\t{e['row']}\t{e['col']}\t{e['printed']}\t{e['recomputed']}\t"
        f"{json.dumps(e['match'])}\n"
        for e in p["entries"]
    )


def _exact_texts(doc):
    # every rendered exact value in the record
    p = doc["payload"]
    if doc["kind"] == "audit_report":
        return [e[key] for e in p["entries"] for key in ("printed", "recomputed")]
    if doc["kind"] == "identity_report":
        return []
    if "values" in p:
        return p["values"]
    return [v for row in (p["table"] if doc["kind"] == "matrix" else p["rows"]) for v in row]


_EDGE_COMMANDS = [
    ["numbers", "bernoulli", "--nmax", "0"],
    ["numbers", "stirling1", "--nmax", "0"],
    ["numbers", "euler", "--nmax", "3", "--lambda=0"],
    ["numbers", "stirling2", "--nmax", "3", "--lambda=-3/7"],
    ["numbers", "bell", "--nmax", "0", "--lambda=-3/7"],
    ["matrix", "B", "--rows", "0"],
    ["matrix", "A", "--seed", "half", "--rows", "0", "--lambda=0"],
    ["matrix", "B", "--seed", "bell", "--rows", "3", "--lambda=-3/7"],
    ["matrix", "A", "--seed", "custom", "--rows", "2"],
    ["matrix", "B", "--seed", "custom", "--rows", "0", "--lambda=-3/7"],
    ["matrix", "A", "--seed", "custom", "--rows", "2", "--lambda=0"],
    ["verify", "--nmax", "0", "--order", "0"],
    ["verify", "--nmax", "3", "--order", "2"],
    ["audit"],
]


@pytest.mark.parametrize("argv", _EDGE_COMMANDS, ids=" ".join)
def test_structured_output_is_exactly_json_dump(argv, tmp_path):
    if "custom" in argv:
        argv = argv + ["--custom-file", _seed_file(tmp_path, "1 + -1*L\n-5/3*L^2\n2\n")]
    status, out, err = _capture(argv)
    assert (status, err) == (0, "")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    lam = next((a.partition("=")[2] for a in argv if a.startswith("--lambda=")), None)
    if doc["kind"] in ("number_table", "matrix"):
        assert doc["payload"]["lambda"] == lam
    for text in _exact_texts(doc):
        assert isinstance(text, str)
        assert (format_rat(parse_rat(text)) if lam else LambdaPoly.parse(text).render()) == text
    status, flat, err = _capture(argv + ["--format", "flat"])
    assert (status, err) == (0, "")
    assert flat == _flat_from_doc(doc)


_rationals = st.one_of(st.integers(-(2**200), 2**200), st.fractions())


@settings(deadline=None, max_examples=200)
@given(st.lists(_rationals, max_size=8), _rationals)
def test_canonical_text_needs_no_json_escaping(coeffs, q):
    # the premise that lets the structured writer quote renderings directly
    for text in (LambdaPoly(coeffs).render(), format_rat(F(q))):
        assert json.dumps(text) == '"' + text + '"'


class _WriteRecorder(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["structured", "flat"])
def test_output_is_written_row_by_row(fmt, two_cpus):
    # at 100 rows a forked child renders two rows in three, still one write each
    for size in (40, 100):
        out = _WriteRecorder()
        with contextlib.redirect_stdout(out):
            assert main(["matrix", "B", "--rows", str(size), "--format", fmt]) == 0
        text = out.getvalue()
        if fmt == "structured":
            # each row as it stands in the record, three levels deep
            table = json.loads(text)["payload"]["table"]
            rows = [json.dumps(row, indent=2).replace("\n", "\n      ") for row in table]
        else:
            by_row: dict[str, str] = {}
            for line in text.splitlines(keepends=True):
                n = line.partition("\t")[0]
                by_row[n] = by_row.get(n, "") + line
            rows = list(by_row.values())
        assert len(rows) == size + 1
        assert max(out.sizes) <= max(map(len, rows))
        assert len(out.sizes) >= len(rows)


@pytest.mark.parametrize("fmt", ["structured", "flat"])
@pytest.mark.parametrize(
    "argv, seed_text, message",
    [
        (["matrix", "B", "--seed", "custom", "--rows", "4"], "1\n1/2\n", "need at least 5"),
        (["matrix", "B", "--seed", "custom", "--rows", "1"], "1\n0.5\n", "line 2"),
        (["matrix", "B", "--rows", "201"], None, "--rows must be in 0..200"),
        (["matrix", "A", "--rows", "-1"], None, "nonnegative"),
        (["numbers", "bernoulli", "--nmax", "-1"], None, "nonnegative"),
        (["numbers", "stirling1", "--nmax", "201", "--lambda=1/2"], None, "0..200"),
        (["matrix", "B", "--rows", "0"], "1\n", "--custom-file is required"),
        (["verify", "--nmax", "-1"], None, "--nmax must be nonnegative"),
        (["verify", "--order", "-1"], None, "--order must be nonnegative"),
        (["matrix", "B", "--seed", "custom", "--rows", "0"], "\n  \n", "contains no seed entries"),
        (["numbers", "bell", "--nmax", "20", "--lambda=1/" + "7" * 400], None, "at most 10 digits"),
        (["matrix", "A", "--rows", "1", "--lambda=-12345678901"], None, "at most 10 digits"),
        (["matrix", "A", "--seed", "custom", "--rows", "1"], "-12345678901\n1\n", "line 1: numerators"),
        (["matrix", "A", "--seed", "custom", "--rows", "1"], "1\n1/12345678901*L\n", "10 digits"),
    ],
)
def test_input_errors_exit_2_before_any_output(argv, seed_text, message, fmt, tmp_path, capsys):
    if seed_text is not None:
        argv = argv + ["--custom-file", _seed_file(tmp_path, seed_text)]
    status, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (status, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["numbers", "bernoulli", "--nmax", "200", "--lambda=9999999999"],
        ["matrix", "A", "--seed", "bell", "--rows", "200", "--lambda=-9999999967/9999999943"],
    ],
)
def test_lambda_at_the_digit_bound_renders_at_the_200_ceilings(argv, capsys):
    # the longest integers found over every numbers and matrix output at the
    # 200 ceilings with 10-digit P and Q (2375 and 2376 digits), well under
    # the 4300 digits that int-to-text conversion takes
    status, out, err = run_cli(capsys, *argv, "--format", "flat")
    assert (status, err) == (0, "")
    assert 2300 < max(map(len, re.findall(r"\d+", out))) < 4300


@pytest.mark.parametrize(
    "argv, seed_text",
    [
        (["numbers", "bernoulli", "--nmax", "200", "--lambda=9999999999"], None),
        (
            ["matrix", "B", "--seed", "custom", "--rows", "1", "--lambda=9999999999/9999999998"],
            "9*L^200\n1\n",
        ),
    ],
    ids=["numbers_bernoulli", "custom_seed"],
)
def test_a_value_past_the_int_to_text_limit_is_written_whole(argv, seed_text, tmp_path, capsys):
    # with the interpreter's limit at its 640-digit minimum, these outputs hold
    # longer integers; main lifts the limit while the writers run, so the
    # output is whole and the interpreter's limit is back at 640 afterwards
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int-to-text conversion")
    if seed_text is not None:
        argv = argv + ["--custom-file", _seed_file(tmp_path, seed_text)]
    expected = run_cli(capsys, *argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        result = run_cli(capsys, *argv)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert result == expected and expected[0] == 0 and expected[2] == ""
    assert max(map(len, re.findall(r"\d+", expected[1]))) > 640


# -- large tables: two rows in three rendered in a forked child --------------------------


@pytest.fixture
def two_cpus(monkeypatch):
    # whether a table forks depends on the CPUs this process may run on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _record_forks(monkeypatch, events):
    # os.fork as it is, with "fork" appended to events at each call
    fork = os.fork

    def counted_fork():
        events.append("fork")
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)


def _custom_seed_polys(count):
    return [LambdaPoly([F(k % 7 - 3, k % 5 + 1), F(1, k + 1), F(k % 4 - 2, 3)]) for k in range(count)]


_LARGE_TABLES = [
    # the smallest Bernoulli run that forks
    ["matrix", "B", "--seed", "bernoulli", "--rows", "66"],
    ["matrix", "A", "--seed", "half", "--rows", "100"],
    ["numbers", "stirling2", "--nmax", "100"],
    ["matrix", "A", "--seed", "custom", "--rows", "70"],
    ["numbers", "bernoulli", "--nmax", "100"],
    ["numbers", "euler", "--nmax", "70"],
    ["numbers", "bell", "--nmax", "70"],
]

_FAMILIES = {
    "bernoulli": bernoulli_deg_sequence,
    "euler": euler_deg_sequence,
    "bell": bell_deg_sequence,
}


def _expected_outputs(argv):
    # the structured and flat bytes, every cell rendered here from the table
    # itself, or every value from the library's sequence
    if argv[1] in _FAMILIES:
        family, nmax = argv[1], int(argv[3])
        texts = [v.render() for v in _FAMILIES[family](nmax)]
        payload = {"family": family, "nmax": nmax, "lambda": None, "values": texts}
        structured = json.dumps({"kind": "number_table", "payload": payload}, indent=2) + "\n"
        return {"structured": structured, "flat": "".join(f"{n}\t{t}\n" for n, t in enumerate(texts))}
    if argv[0] == "numbers":
        nmax = int(argv[3])
        table = stirling2_table(nmax).entries
        kind, key, payload = "number_table", "rows", {"family": "stirling2", "nmax": nmax}
    else:
        alg, seed, rows = argv[1], argv[3], int(argv[5])
        spec = {
            "bernoulli": SequenceSpec.bernoulli,
            "half": SequenceSpec.half_powers,
            "custom": lambda: SequenceSpec.custom(_custom_seed_polys(rows + 1)),
        }[seed]()
        table = build_table(alg, spec, rows).rows
        kind, key, payload = "matrix", "table", {"algorithm": alg, "seed": seed, "rows": rows}
    texts = [[v.render() for v in row] for row in table]
    payload.update({"lambda": None, key: texts})
    structured = json.dumps({"kind": kind, "payload": payload}, indent=2) + "\n"
    flat = "".join(f"{n}\t{k}\t{text}\n" for n, row in enumerate(texts) for k, text in enumerate(row))
    return {"structured": structured, "flat": flat}


def _with_seed_file(argv, tmp_path):
    # a custom run with its seed file, _custom_seed_polys for each row
    if "custom" not in argv:
        return argv
    text = "".join(p.render() + "\n" for p in _custom_seed_polys(int(argv[5]) + 1))
    return argv + ["--custom-file", _seed_file(tmp_path, text)]


@pytest.mark.parametrize("argv", _LARGE_TABLES, ids=" ".join)
def test_large_tables_write_the_same_bytes_forked_or_not(argv, tmp_path, monkeypatch, two_cpus):
    argv = _with_seed_file(argv, tmp_path)
    expected = _expected_outputs(argv)
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(1)
        return fork()

    def failed_fork():
        raise OSError("fork failed")

    for fmt in ("structured", "flat"):
        monkeypatch.setattr(os, "fork", counted_fork)
        assert _capture(argv + ["--format", fmt]) == (0, expected[fmt], "")
        assert forks == [1]
        _no_child_left()
        forks.clear()
        monkeypatch.setattr(os, "fork", failed_fork)
        assert _capture(argv + ["--format", fmt]) == (0, expected[fmt], "")
        _no_child_left()


_IN_PROCESS = [
    ["verify", "--nmax", "30", "--order", "30"],
    ["audit"],
    # the largest size under the bound of 66 rows
    ["numbers", "bernoulli", "--nmax", "65"],
    ["numbers", "bernoulli", "--nmax", "100", "--lambda=3/8"],
    # the lambda_eval shape, 5,151 cells; a rational table has at most 20,301
    ["matrix", "B", "--rows", "100", "--lambda=-1/9"],
    ["numbers", "stirling1", "--nmax", "200", "--lambda=-3/7"],
    ["matrix", "B", "--rows", "40"],
]


@pytest.mark.parametrize("argv", _IN_PROCESS, ids=" ".join)
def test_small_tables_and_reports_render_in_this_process(argv, monkeypatch, two_cpus):
    # verify forks once, for the identity suite's child, and before any output
    from degenums import cli

    suite, events = cli.run_identity_suite, []

    def suite_then_mark(*args, **kwargs):
        results = suite(*args, **kwargs)
        events.append("suite done")
        return results

    _record_forks(monkeypatch, events)
    monkeypatch.setattr(cli, "run_identity_suite", suite_then_mark)
    for fmt in ("structured", "flat"):
        events.clear()
        status, out, err = _capture(argv + ["--format", fmt])
        assert (status, err) == (0, "") and out
        assert events == (["fork", "suite done"] if argv[0] == "verify" else [])
        _no_child_left()


@pytest.mark.parametrize("cpus", ["affinity", "cpu_count"])
def test_one_cpu_renders_a_large_table_in_this_process(cpus, monkeypatch):
    # the CPUs this process may run on where the platform says, else the machine's
    argv = _LARGE_TABLES[0]
    if cpus == "affinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert _capture(argv + ["--format", "flat"]) == (0, _expected_outputs(argv)["flat"], "")


def test_a_large_table_beside_another_thread_renders_in_this_process(monkeypatch, two_cpus):
    # a forked child would inherit the other thread's locks in whatever state they are
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    argv = _LARGE_TABLES[0]
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(60,))
    thread.start()
    try:
        assert _capture(argv + ["--format", "flat"]) == (0, _expected_outputs(argv)["flat"], "")
    finally:
        done.set()
        thread.join(timeout=60)
    assert not thread.is_alive()


@pytest.mark.parametrize("failure", ["render_raises", "exits_after_two_rows"])
@pytest.mark.parametrize("fmt", ["structured", "flat"])
def test_rows_the_child_does_not_send_are_rendered_here(fmt, failure, monkeypatch, two_cpus):
    # a failed child changes neither the bytes nor the exit status: each of
    # its rows it has not sent in full is rendered here, and each it sent is used
    from degenums import cli

    argv = _LARGE_TABLES[0]
    pid, here, forks = os.getpid(), [], []
    if failure == "render_raises":
        render = LambdaPoly.render

        def render_here_only(self):
            if os.getpid() != pid:
                raise RuntimeError("no render in the child")
            return render(self)

        monkeypatch.setattr(LambdaPoly, "render", render_here_only)
    else:
        name = "_flat_row" if fmt == "flat" else "_json_row"
        row_text, sent = getattr(cli, name), []

        def leaves_at_its_third_row(*args):
            if os.getpid() == pid:
                here.append(1)
            else:
                sent.append(1)
                if len(sent) == 3:
                    os._exit(1)
            return row_text(*args)

        monkeypatch.setattr(cli, name, leaves_at_its_third_row)
    _record_forks(monkeypatch, forks)
    assert _capture(argv + ["--format", fmt]) == (0, _expected_outputs(argv)[fmt], "")
    assert forks == ["fork"]
    if failure == "exits_after_two_rows":  # rows 1 and 2 from the child, 65 of 67 here
        assert len(here) == 65
    _no_child_left()


_FORKING = [["verify", "--nmax", "4", "--order", "4"], ["matrix", "B", "--rows", "66", "--format", "flat"]]


def _capture_forked(argv, monkeypatch):
    # the output of argv, which forks once here: a failure patched in after
    # this call then stops a fork that would otherwise happen
    forks = []
    with monkeypatch.context() as patched:
        _record_forks(patched, forks)
        expected = _capture(argv)
    assert forks == ["fork"]
    _no_child_left()
    return expected


@pytest.mark.parametrize("argv", _FORKING, ids=" ".join)
def test_a_failed_pipe_runs_in_this_process(argv, monkeypatch, two_cpus):
    # os.pipe failing is a fork that did not happen: the same bytes, status 0
    expected, failed = _capture_forked(argv, monkeypatch), []

    def no_pipe():
        failed.append(1)
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(os, "pipe", no_pipe)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert _capture(argv) == expected and expected[0] == 0 and expected[2] == ""
    assert failed == [1]
    _no_child_left()


@pytest.mark.parametrize("fmt", ["structured", "flat"])
def test_the_forked_renderer_runs_no_recurrence_cell(fmt, monkeypatch, two_cpus):
    # the child renders rows it never computed: a cell of the recurrence in any
    # other process ends that process with status 3, and its rows with it
    from degenums import algorithms, cli

    argv = _LARGE_TABLES[0]
    expected = _expected_outputs(argv)[fmt]
    pid, here, forks = os.getpid(), [], []
    cell = algorithms.times_linear_add

    def cell_here_only(*args):
        if os.getpid() != pid:
            os._exit(3)
        return cell(*args)

    name = "_flat_row" if fmt == "flat" else "_json_row"
    row_text = getattr(cli, name)

    def counted(*args):
        if os.getpid() == pid:
            here.append(1)
        return row_text(*args)

    monkeypatch.setattr(algorithms, "times_linear_add", cell_here_only)
    monkeypatch.setattr(cli, name, counted)
    _record_forks(monkeypatch, forks)
    assert _capture(argv + ["--format", fmt]) == (0, expected, "")
    assert forks == ["fork"]
    assert len(here) < int(argv[5]) + 1
    _no_child_left()


@pytest.mark.parametrize("fmt", ["structured", "flat"])
@pytest.mark.parametrize("family", ["bernoulli", "euler"])
def test_the_forked_family_child_computes_no_stirling_cell(family, fmt, monkeypatch, two_cpus):
    # the child sums rows it never computed (bernoulli by nested sums, euler by
    # weighted sums): a cell of the triangle in any other process ends that
    # process with status 3, and its values with it
    from degenums import numbers

    argv = ["numbers", family, "--nmax", "100"]
    expected = _expected_outputs(argv)[fmt]
    pid, here, forks = os.getpid(), [], []
    cell, row_sums = numbers.times_linear_add, numbers.row_sums

    def cell_here_only(*args):
        if os.getpid() != pid:
            os._exit(3)
        return cell(*args)

    def counted_row_sums(*args):
        value = row_sums(*args)

        def counted(row):
            if os.getpid() == pid:
                here.append(1)
            return value(row)

        return counted

    monkeypatch.setattr(numbers, "times_linear_add", cell_here_only)
    monkeypatch.setattr(numbers, "row_sums", counted_row_sums)
    _record_forks(monkeypatch, forks)
    assert _capture(argv + ["--format", fmt]) == (0, expected, "")
    assert forks == ["fork"]
    assert 0 < len(here) < 101
    _no_child_left()


_SYMBOLIC_STREAMS = [
    *(["numbers", family, "--nmax"] for family in ("stirling1", "stirling2", "bernoulli", "euler", "bell")),
    *(
        ["matrix", kind, "--seed", seed, "--rows"]
        for kind in "AB"
        for seed in ("bernoulli", "half", "bell", "custom")
    ),
]


@pytest.mark.parametrize(
    "argv, forks",
    [(argv + ["65"], []) for argv in _SYMBOLIC_STREAMS]
    + [(argv + ["66"], ["fork"]) for argv in _SYMBOLIC_STREAMS]
    + [
        (["numbers", "bernoulli", "--nmax", "100", "--lambda=3/8"], []),
        (["matrix", "B", "--rows", "200", "--lambda=-3/7"], []),
        (["numbers", "bernoulli_at_one", "--nmax", "100"], []),
        (["numbers", "euler_at_one", "--nmax", "100"], []),
    ],
    ids=" ".join,
)
def test_a_family_forks_where_its_triangle_does(argv, forks, tmp_path, monkeypatch, two_cpus):
    # every symbolic triangle, family and matrix run forks once from 66 rows
    # (--nmax or --rows) and never below; a rational L and the *_at_one
    # families never fork
    argv, events = _with_seed_file(argv, tmp_path), []
    _record_forks(monkeypatch, events)
    for fmt in ("structured", "flat"):
        events.clear()
        status, out, err = _capture(argv + ["--format", fmt])
        assert (status, err) == (0, "") and out
        assert events == forks
        _no_child_left()


@pytest.mark.parametrize("memfd", ["raises", "absent"])
@pytest.mark.parametrize("argv", _FORKING, ids=" ".join)
def test_a_failed_memory_file_runs_in_this_process(argv, memfd, monkeypatch, two_cpus):
    # like a failed pipe: no fork, the same bytes, status 0; where the second
    # memory file fails, the first is closed
    expected, made, failed = _capture_forked(argv, monkeypatch), [], []
    if memfd == "raises":
        real = os.memfd_create

        def second_fails(*args, **kwargs):
            if made:
                failed.append(1)
                raise OSError(24, "Too many open files")
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(os, "memfd_create", second_fails)
    else:
        monkeypatch.delattr(os, "memfd_create", raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert _capture(argv) == expected and expected[0] == 0 and expected[2] == ""
    assert (len(made), failed) == ((1, [1]) if memfd == "raises" else (0, []))
    for fd in made:
        with pytest.raises(OSError):
            os.fstat(fd)
    _no_child_left()


class _BrokenAtThirdWrite(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == 3:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_a_write_that_fails_mid_table_leaves_no_child(monkeypatch, two_cpus):
    # the error reaches the caller only after the child is reaped, even while
    # the caller holds its traceback: this process closes its ends first, so
    # the child stops at its next record
    forks = []
    _record_forks(monkeypatch, forks)
    out = _BrokenAtThirdWrite()
    with contextlib.redirect_stdout(out), pytest.raises(BrokenPipeError) as raised:
        main(_LARGE_TABLES[0] + ["--format", "flat"])
    assert forks == ["fork"] and out.writes == 3
    _no_child_left()
    assert raised.value.errno == 32


# -- the identity suite's forked child ------------------------------------------------


def _failing_in_the_child(monkeypatch, failure):
    # log_L(1+t) is read only by exp_log_compositional_inverse, one of the
    # identities the child checks; here it fails in the child
    from degenums import audit

    pid, real = os.getpid(), audit.log_lambda_series

    def log_series(order):
        if os.getpid() != pid:
            failure()
        return real(order)

    monkeypatch.setattr(audit, "log_lambda_series", log_series)


def _raise():
    raise RuntimeError("no log series")


@pytest.mark.parametrize("failure", [_raise, lambda: os._exit(1)], ids=["raises", "exits_1"])
def test_a_failed_suite_child_has_its_identities_checked_here(failure, monkeypatch, two_cpus):
    # a child that fails, or leaves before it writes, changes nothing: its
    # identities run again here, with the same output
    argv = ["verify", "--nmax", "12", "--order", "12"]
    expected, forks = _capture(argv), []
    assert expected[0] == 0
    _record_forks(monkeypatch, forks)
    _failing_in_the_child(monkeypatch, failure)
    assert _capture(argv) == expected
    assert forks == ["fork"]
    _no_child_left()


def test_an_error_in_a_child_identity_surfaces_here(monkeypatch, two_cpus):
    # the check raises in the child and again where it reruns here; main lets
    # the error through, as it does with the suite in one process
    from degenums import audit

    forks = []
    _record_forks(monkeypatch, forks)
    monkeypatch.setattr(audit, "log_lambda_series", lambda order: _raise())
    with pytest.raises(RuntimeError, match="no log series"):
        main(["verify"])
    assert forks == ["fork"]
    _no_child_left()


def test_an_error_in_a_child_identity_exits_1_with_a_traceback():
    # the console script, where the error is Python's own: a traceback and status 1
    code = (
        "from degenums import audit, cli\n"
        "def no_log_series(order):\n"
        "    raise RuntimeError('no log series')\n"
        "audit.log_lambda_series = no_log_series\n"
        "cli.console_main()\n"
    )
    proc = _console([sys.executable, "-c", code, "verify"], stdout=subprocess.PIPE)
    assert proc.returncode == 1 and proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith("Traceback") and err.endswith("RuntimeError: no log series\n")


# -- console entry point ---------------------------------------------------------------


def test_module_invocation_subprocess():
    # the child imports the same package as this test, installed or not
    src = str(Path(degenums.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "degenums", "numbers", "euler", "--nmax", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["payload"]["values"] == ["1", "-1/2", "1/2*L"]


def test_closed_pipe_exits_141_with_nothing_on_stderr():
    # as `degenums matrix B --rows 40 --format flat | head` does: the reader
    # takes 100 bytes of about 1 MB and closes the pipe; at 100 rows a forked
    # child renders two rows in three
    src = str(Path(degenums.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for rows in ("40", "100"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "degenums", "matrix", "B", "--rows", rows, "--format", "flat"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.stderr.read() == b""
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141


def _console(argv, **streams):
    # the console script, run as a child with the given standard streams
    src = str(Path(degenums.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(argv, env=env, stderr=subprocess.PIPE, timeout=60, **streams)


def test_closed_stdout_exits_2_with_one_error_line():
    # as `degenums numbers bernoulli --nmax 3 >&-` does: Python starts with
    # sys.stdout None
    script = 'exec "$0" -m degenums numbers bernoulli --nmax 3 >&-'
    proc = _console(["sh", "-c", script, sys.executable])
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == ["error: cannot write the output: stdout is closed"]


def test_full_device_on_stdout_exits_2_with_one_error_line():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "wb") as full:
        proc = _console(
            [sys.executable, "-m", "degenums", "matrix", "B", "--rows", "40"], stdout=full
        )
    assert proc.returncode == 2
    (line,) = proc.stderr.decode().splitlines()
    assert line.startswith("error: cannot write the output: ") and "No space left" in line


def test_cli_import_loads_no_unused_modules():
    # every CLI call is a fresh process, so start-up counts in its wall time;
    # the records are namedtuples, and dataclasses would load all of these
    src = str(Path(degenums.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys; before = set(sys.modules); import degenums.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "degenums.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize(
    "make, field, text",
    [
        (
            lambda: SequenceSpec.custom((1, 2)),
            "variant",
            "SequenceSpec(variant='custom', custom_values=(LambdaPoly('1'), LambdaPoly('2')))",
        ),
        (
            lambda: AlgorithmTable(((ONE, LAM), (ONE,))),
            "rows",
            "AlgorithmTable(rows=((LambdaPoly('1'), LambdaPoly('1*L')), (LambdaPoly('1'),)))",
        ),
        (
            lambda: StirlingTable(((ONE,), (ZERO, LAM))),
            "entries",
            "StirlingTable(entries=((LambdaPoly('1'),), (LambdaPoly('0'), LambdaPoly('1*L'))))",
        ),
        (
            lambda: PrintedEntry("bell_B", 1, 2, LAM),
            "printed",
            "PrintedEntry(matrix_id='bell_B', row=1, col=2, printed=LambdaPoly('1*L'))",
        ),
        (
            lambda: MatrixAuditResult(PrintedEntry("bell_B", 1, 2, LAM), ONE, False),
            "match",
            "MatrixAuditResult(entry=PrintedEntry(matrix_id='bell_B', row=1, col=2, "
            "printed=LambdaPoly('1*L')), recomputed=LambdaPoly('1'), match=False)",
        ),
        (
            lambda: IdentityResult("x", 3, True),
            "passed",
            "IdentityResult(name='x', max_tested=3, passed=True)",
        ),
        (
            lambda: OutputRecord("matrix", {"rows": 1}),
            "kind",
            "OutputRecord(kind='matrix', payload={'rows': 1})",
        ),
    ],
    ids=[
        "SequenceSpec", "AlgorithmTable", "StirlingTable", "PrintedEntry",
        "MatrixAuditResult", "IdentityResult", "OutputRecord",
    ],
)
def test_records_are_frozen_values(make, field, text):
    a, b = make(), make()
    assert a == b and a is not b
    if isinstance(a, OutputRecord):  # a record with a dict field does not hash
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a: 0, b: 1}) == 1
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = None
    assert a == b and repr(a) == text


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
