"""Acceptance suite: the package's exit criteria, one test per criterion.

Everything here is exact polynomial arithmetic over the rationals, so every
tolerance is exact equality.  Each test prints one pass/fail line (run with
``pytest -s`` to see them all).

Criterion 1 compares the final column of the Bernoulli run with the
degenerate Bernoulli numbers as Carlitz (1979) defines them, not with the
printed reference table.  The printed row 3 of that table's column 0,
``L(1-L)^2(1-2L)/4``, is a misprint: it has degree 4 in L, while entry
(n, m) of a kind-B run has degree at most n + m, and it disagrees with
Carlitz's series and with all three computation paths (recurrence, weighted
Stirling sum, generating series).  The misprint stays in the printed corpus
as data; the test checks that the audit reports it.
"""

import json
import math
from fractions import Fraction
from time import perf_counter

import pytest

from degenums.algorithms import (
    SequenceSpec,
    build_table,
    closed_form_final_sequence,
    final_sequence,
    inverse_transform_check,
    transform_check,
)
from degenums.audit import (
    PRINTED_MATRIX_CORPUS,
    audit_printed_matrices,
    classical_algorithm_table,
    stirling2_by_basis_expansion,
)
from degenums.cli import main as cli_main
from degenums.exact import LAM, ONE, ZERO, LambdaPoly, classical_falling
from degenums.numbers import (
    bell_deg_sequence,
    bernoulli_deg_poly_sequence,
    bernoulli_deg_sequence,
    classical_bell,
    classical_bernoulli,
    classical_euler,
    euler_deg_poly_sequence,
    euler_deg_sequence,
    stirling1_table,
    stirling2_table,
)
from degenums.series import (
    TruncatedSeries,
    apply_weighted_derivation,
    e_lambda_series,
    log_lambda_series,
    stirling2_from_series,
)

F = Fraction
P = LambdaPoly.parse

ALL_SEEDS = (SequenceSpec.bernoulli(), SequenceSpec.half_powers(), SequenceSpec.bell())

# beta_0..beta_3 from Carlitz's definition
#   t/((1+Lt)^(1/L) - 1) = sum_n beta_n(L) t^n/n!
# expanded by hand; test_criterion_01_reference_values_from_carlitz_series
# re-derives them with sympy.
CARLITZ_BETA_0_3 = (
    P("1"),
    P("-1/2 + 1/2*L"),
    P("1/6 + -1/6*L^2"),
    P("-1/4*L + 1/4*L^3"),
)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {label}: {state}{suffix}")


def _bernoulli_egf_values(nmax: int) -> list[LambdaPoly]:
    e = e_lambda_series(nmax + 1)
    egf = (e - TruncatedSeries.constant(ONE, nmax + 1)).shift_down(1).reciprocal()
    return [egf.coeff(n).scale(math.factorial(n)) for n in range(nmax + 1)]


def _euler_egf_values(nmax: int) -> list[LambdaPoly]:
    e = e_lambda_series(nmax)
    egf = ((e + TruncatedSeries.constant(ONE, nmax)).scale(F(1, 2))).reciprocal()
    return [egf.coeff(n).scale(math.factorial(n)) for n in range(nmax + 1)]


def test_criterion_01_bernoulli_identification():
    nmax = 24
    start = perf_counter()
    finals = final_sequence(build_table("B", SequenceSpec.bernoulli(), nmax))
    closed = closed_form_final_sequence("B", SequenceSpec.bernoulli(), nmax)
    series_values = _bernoulli_egf_values(nmax)
    elapsed = perf_counter() - start

    three_way = finals == closed == series_values
    carlitz_ok = finals[:4] == list(CARLITZ_BETA_0_3)
    printed_col0 = {
        e.row: e.printed
        for e in PRINTED_MATRIX_CORPUS
        if e.matrix_id == "bernoulli_B" and e.col == 0
    }
    printed_ok = all(finals[r] == printed_col0[r] for r in range(3))
    audit_flags = {
        (r.entry.matrix_id, r.entry.row, r.entry.col): r.match
        for r in audit_printed_matrices()
    }
    misprint_reported = not audit_flags[("bernoulli_B", 3, 0)]
    ok = (
        three_way
        and elapsed < 10.0
        and carlitz_ok
        and printed_ok
        and misprint_reported
    )
    detail = (
        f"three-way n<=24 {'ok' if three_way else 'BAD'}, {elapsed:.2f}s; "
        f"printed row 3 {printed_col0[3].render()!r} vs "
        f"recomputed {finals[3].render()!r}"
    )
    _report(1, "final column identifies the Bernoulli family", ok, detail)

    assert three_way
    assert elapsed < 10.0
    assert carlitz_ok, [p.render() for p in finals[:4]]
    assert printed_ok
    # Printed row 3 is a misprint (degree 4, where a kind-B run gives degree
    # at most 3 at (3, 0)); the audit must keep reporting it.
    assert misprint_reported


def test_criterion_01_reference_values_from_carlitz_series():
    sympy = pytest.importorskip("sympy")
    L, t = sympy.symbols("L t")
    expansion = sympy.series(t / ((1 + L * t) ** (1 / L) - 1), t, 0, 4).removeO()
    finals = final_sequence(build_table("B", SequenceSpec.bernoulli(), 3))
    for n, expected in enumerate(CARLITZ_BETA_0_3):
        beta = sympy.Poly(
            sympy.simplify(expansion.coeff(t, n) * sympy.factorial(n)), L
        )
        coeffs = [F(int(c.p), int(c.q)) for c in reversed(beta.all_coeffs())]
        assert LambdaPoly(coeffs) == expected == finals[n], n


def test_criterion_02_euler_identification():
    nmax = 24
    finals = final_sequence(build_table("B", SequenceSpec.half_powers(), nmax))
    closed = closed_form_final_sequence("B", SequenceSpec.half_powers(), nmax)
    sums = euler_deg_sequence(nmax)
    series_values = _euler_egf_values(nmax)
    ok = finals == closed == sums == series_values
    _report(2, "half-powers seed yields the degenerate Euler numbers", ok)
    assert ok


def test_criterion_03_bell_identification():
    nmax = 24
    finals = final_sequence(build_table("B", SequenceSpec.bell(), nmax))
    s2 = stirling2_table(nmax)
    row_sums = [
        sum((s2.entry(n, k) for k in range(1, n + 1)), ZERO) for n in range(nmax + 1)
    ]
    identified = finals[1:] == row_sums[1:]
    at_zero = [int(finals[n].eval_at(0)) for n in range(1, 6)]
    classical_ok = at_zero == [1, 2, 5, 15, 52]
    ok = identified and classical_ok
    _report(3, "bell seed yields the degenerate Bell numbers", ok,
            f"lambda=0 head {at_zero}")
    assert identified
    assert classical_ok


def test_criterion_04_a_kind_identifications():
    nmax = 24
    cases = (
        (SequenceSpec.bernoulli(), bernoulli_deg_poly_sequence(nmax, 1), "bernoulli at 1"),
        (SequenceSpec.half_powers(), euler_deg_poly_sequence(nmax, 1), "euler at 1"),
    )
    ok = True
    for seed, convolution, _label in cases:
        finals = final_sequence(build_table("A", seed, nmax))
        closed = closed_form_final_sequence("A", seed, nmax)
        ok = ok and (finals == closed == convolution)
    _report(4, "A-kind final sequences identify the values at 1", ok)
    assert ok


def test_criterion_05_transform_identities():
    order = 20
    ok = True
    for kind in ("B", "A"):
        for seed in ALL_SEEDS:
            egf, transformed = transform_check(kind, seed, order)
            lhs, rhs = inverse_transform_check(kind, seed, order)
            ok = ok and egf == transformed and lhs == rhs
    _report(5, "forward and inverse generating-function transforms to order 20", ok)
    assert ok


def test_criterion_06_stirling_consistency():
    nmax = 15
    rec = stirling2_table(nmax)
    ser = stirling2_from_series(nmax)
    bas = stirling2_by_basis_expansion(nmax)
    triangles = all(
        rec.entry(n, k) == ser.entry(n, k) == bas.entry(n, k)
        for n in range(nmax + 1)
        for k in range(n + 1)
    )
    order = 24
    e = e_lambda_series(order)
    lg = log_lambda_series(order)
    one = TruncatedSeries.constant(ONE, order)
    t = TruncatedSeries([ZERO, ONE] + [ZERO] * (order - 1))
    inverses = lg.compose(e - one) == t and e.compose(lg) == one + t
    ok = triangles and inverses
    _report(6, "stirling triangles agree three ways; exp/log invert to order 24", ok)
    assert triangles
    assert inverses


def test_criterion_07_inversion_and_auxiliary_identities():
    nmax = 18
    s1 = stirling1_table(nmax)
    bern = bernoulli_deg_sequence(nmax)
    euler = euler_deg_sequence(nmax)
    bern1 = bernoulli_deg_poly_sequence(nmax, 1)
    euler1 = euler_deg_poly_sequence(nmax, 1)

    def weighted(values, n):
        return sum((s1.entry(n, k) * values[k] for k in range(n + 1)), ZERO)

    inversions = True
    for n in range(nmax + 1):
        fall = classical_falling(LambdaPoly((n, -1)), n)
        inversions &= weighted(bern, n) == fall.scale(F((-1) ** n, n + 1))
        inversions &= weighted(euler, n) == LambdaPoly.constant(
            F((-1) ** n * math.factorial(n), 2**n)
        )
    for n in range(1, nmax + 1):
        fall = classical_falling(LambdaPoly((n - 1, -1)), n - 1)
        inversions &= weighted(bern1, n) == ((LAM + ONE) * fall).scale(
            F((-1) ** (n - 1), n + 1)
        )
        inversions &= weighted(euler1, n) == LambdaPoly.constant(
            F((-1) ** (n - 1) * math.factorial(n), 2**n)
        )

    cap = 15
    e = e_lambda_series(cap)
    em1 = e - TruncatedSeries.constant(ONE, cap)
    s2 = stirling2_table(cap + 1)
    auxiliary = True
    power = TruncatedSeries.constant(ONE, cap)
    for k in range(cap + 1):
        lhs_series = e * power
        for n in range(k, cap + 1):
            lhs = lhs_series.coeff(n).scale(F(math.factorial(n), math.factorial(k)))
            rhs = s2.entry(n + 1, k + 1) + s2.entry(n, k + 1) * LAM.scale(n)
            auxiliary &= lhs == rhs
        if k < cap:
            power = power * em1
    ok = inversions and auxiliary
    _report(7, "first-kind inversion identities and shifted extraction", ok)
    assert inversions
    assert auxiliary


def test_criterion_08_classical_degeneration():
    nmax = 20
    bern = bernoulli_deg_sequence(nmax)
    euler = euler_deg_sequence(nmax)
    bell = bell_deg_sequence(nmax)
    cb, ce, cl = classical_bernoulli(nmax), classical_euler(nmax), classical_bell(nmax)
    numbers_ok = all(
        bern[n].eval_at(0) == cb[n]
        and euler[n].eval_at(0) == ce[n]
        and bell[n].eval_at(0) == cl[n]
        for n in range(nmax + 1)
    )
    rows = 12
    tables_ok = True
    for kind in ("B", "A"):
        for seed in ALL_SEEDS:
            table = build_table(kind, seed, rows)
            seed0 = [v.eval_at(0) for v in seed.values(rows + 1)]
            classical = classical_algorithm_table(kind, seed0, rows)
            for n in range(rows + 1):
                for m in range(rows - n + 1):
                    tables_ok &= table.entry(n, m).eval_at(0) == classical[n][m]
    ok = numbers_ok and tables_ok
    _report(8, "everything degenerates to the classical objects at lambda=0", ok)
    assert numbers_ok
    assert tables_ok


def test_criterion_09_operator_reproduces_rows():
    base = 12
    ok = True
    for seed in (SequenceSpec.bernoulli(), SequenceSpec.half_powers()):
        f0 = TruncatedSeries(seed.values(base + 1))
        table = build_table("B", seed, base)
        for n, derived in enumerate(apply_weighted_derivation(f0, 6)):
            ok = ok and derived.coeffs == table.rows[n]
    _report(9, "iterated weighted derivation reproduces table rows", ok)
    assert ok


def test_criterion_10_audit_and_verify(capsys):
    report = audit_printed_matrices()
    again = audit_printed_matrices()
    deterministic = report == again

    flags = {
        (r.entry.matrix_id, r.entry.row, r.entry.col): r.match
        for r in report
    }
    required_mismatches = [
        ("bernoulli_B", 2, 1),
        ("bernoulli_B", 3, 0),
        ("half_powers_B", 2, 0),
        ("bell_B", 3, 0),
    ]
    required_matches = [
        ("bernoulli_B", 1, 1),
        ("bernoulli_B", 0, 0),
        ("bernoulli_B", 0, 1),
        ("bernoulli_B", 0, 2),
        ("bernoulli_B", 1, 0),
        ("bernoulli_B", 2, 0),
        ("half_powers_B", 0, 0),
        ("half_powers_B", 1, 0),
        ("bell_B", 0, 0),
        ("bell_B", 0, 1),
        ("bell_B", 2, 0),
    ]
    mismatches_ok = all(not flags[key] for key in required_mismatches)
    matches_ok = all(flags[key] for key in required_matches)

    audit_status = cli_main(["audit"])
    out_first = capsys.readouterr().out
    cli_main(["audit"])
    out_second = capsys.readouterr().out
    bytes_ok = out_first.encode() == out_second.encode()
    payload = json.loads(out_first)["payload"]
    audit_serialized_ok = any(
        e["matrix"] == "half_powers_B" and e["row"] == 2 and e["col"] == 0
        and e["printed"] == "0" and e["recomputed"] == "1/2*L"
        for e in payload["entries"]
    )

    verify_status = cli_main(["verify", "--nmax", "10", "--order", "10"])
    capsys.readouterr()

    ok = (
        deterministic
        and mismatches_ok
        and matches_ok
        and audit_status == 0
        and bytes_ok
        and audit_serialized_ok
        and verify_status == 0
    )
    _report(10, "audit reproduces the known findings; verify suite exits 0", ok)
    assert deterministic
    assert mismatches_ok
    assert matches_ok
    assert audit_status == 0
    assert bytes_ok
    assert audit_serialized_ok
    assert verify_status == 0
