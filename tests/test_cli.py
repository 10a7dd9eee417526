import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import degenums
from degenums.cli import main
from degenums.exact import LambdaPoly, parse_rat

F = Fraction


def run_cli(capsys, *argv):
    status = main(list(argv))
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


# -- matrix ----------------------------------------------------------------------


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


def test_matrix_custom_seed_malformed_line(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text("1\n0.5\n", encoding="utf-8")
    status, _, err = run_cli(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "1",
        "--custom-file", str(path),
    )
    assert status == 2
    assert "line 2" in err


def test_matrix_custom_seed_noncanonical_line(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text("1\n2/4\n", encoding="utf-8")
    status, _, err = run_cli(
        capsys, "matrix", "B", "--seed", "custom", "--rows", "1",
        "--custom-file", str(path),
    )
    assert status == 2
    assert "line 2" in err and "not in canonical form" in err


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


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
