from fractions import Fraction

import pytest

from degenums.audit import (
    IDENTITY_NAMES,
    PRINTED_MATRIX_CORPUS,
    audit_printed_matrices,
    classical_algorithm_table,
    run_identity_suite,
    stirling2_by_basis_expansion,
)
from degenums.exact import LAM, ONE, LambdaPoly
from degenums.numbers import bernoulli_deg_sequence, classical_bernoulli, stirling2_table

F = Fraction
P = LambdaPoly.parse


def _result(results, matrix_id, row, col):
    for r in results:
        e = r.entry
        if (e.matrix_id, e.row, e.col) == (matrix_id, row, col):
            return r
    raise AssertionError(f"no corpus entry {matrix_id} ({row},{col})")


def test_corpus_shape():
    counts = {}
    for e in PRINTED_MATRIX_CORPUS:
        counts[e.matrix_id] = counts.get(e.matrix_id, 0) + 1
    assert counts == {"bernoulli_B": 11, "half_powers_B": 14, "bell_B": 16}


def test_required_mismatches_are_reported():
    report = audit_printed_matrices()
    r = _result(report, "bernoulli_B", 2, 1)
    assert not r.match
    assert r.entry.printed == (LAM * (ONE - LAM) * (ONE - LAM)).scale(F(-1, 12))
    assert r.recomputed == (LAM * (ONE - LAM) * (ONE + LAM)).scale(F(-1, 12))

    r = _result(report, "half_powers_B", 2, 0)
    assert not r.match
    assert r.entry.printed.render() == "0"
    assert r.recomputed.render() == "1/2*L"

    r = _result(report, "bell_B", 3, 0)
    assert not r.match
    assert r.entry.printed == P("6 + -8*L + 2*L^2")
    assert r.recomputed == P("5 + -6*L + 2*L^2")


def test_hand_verified_matches():
    report = audit_printed_matrices()
    assert _result(report, "bernoulli_B", 1, 1).match
    # column 0 of the reference run agrees for rows 0..2 only; row 3 as
    # printed does not satisfy its own recurrence (see the mismatch test).
    for row in range(3):
        assert _result(report, "bernoulli_B", row, 0).match


def test_printed_row3_bernoulli_is_inconsistent_with_recurrence():
    # The recomputed value is confirmed by the closed sum and the series.
    report = audit_printed_matrices()
    r = _result(report, "bernoulli_B", 3, 0)
    assert not r.match
    # the misprint stays in the corpus exactly as printed
    assert r.entry.printed == P("1/4*L + -1*L^2 + 5/4*L^3 + -1/2*L^4")
    assert r.recomputed == bernoulli_deg_sequence(3)[3]
    assert r.recomputed == P("-1/4*L + 1/4*L^3")


def test_row0_matches_seed_definitions():
    report = audit_printed_matrices()
    for col in range(3):
        assert _result(report, "bernoulli_B", 0, col).match
    for col in range(5):
        assert _result(report, "half_powers_B", 0, col).match
    # the printed bell row 0 deviates from the seed beyond column 1
    assert _result(report, "bell_B", 0, 0).match
    assert _result(report, "bell_B", 0, 1).match
    for col in (2, 3, 4):
        assert not _result(report, "bell_B", 0, col).match


def test_audit_is_deterministic():
    first = audit_printed_matrices()
    second = audit_printed_matrices()
    assert first == second


def test_audit_never_fails_on_mismatch():
    results = audit_printed_matrices()
    assert any(not r.match for r in results)
    assert len(results) == len(PRINTED_MATRIX_CORPUS)


# -- oracles -----------------------------------------------------------------


def test_basis_expansion_matches_recurrence():
    bas = stirling2_by_basis_expansion(10)
    rec = stirling2_table(10)
    for n in range(11):
        for k in range(n + 1):
            assert bas.entry(n, k) == rec.entry(n, k)


def test_classical_table_recovers_bernoulli():
    rows = 8
    seed = [F(1, m + 1) for m in range(rows + 1)]
    table = classical_algorithm_table("B", seed, rows)
    expected = classical_bernoulli(rows)
    assert [table[n][0] for n in range(rows + 1)] == expected


def test_classical_table_a_kind_shifts_bernoulli():
    # same seed under the A recurrence gives the values at 1: equal to the
    # numbers except at index 1 where the shift adds 1
    rows = 6
    seed = [F(1, m + 1) for m in range(rows + 1)]
    table = classical_algorithm_table("A", seed, rows)
    bern = classical_bernoulli(rows)
    finals = [table[n][0] for n in range(rows + 1)]
    assert finals[0] == bern[0]
    assert finals[1] == bern[1] + 1
    assert finals[2:] == bern[2:]


def test_classical_table_validation():
    with pytest.raises(ValueError):
        classical_algorithm_table("X", [F(1)], 0)
    with pytest.raises(ValueError):
        classical_algorithm_table("B", [F(1)], 3)


# -- identity suite -------------------------------------------------------------


def test_identity_suite_all_pass():
    results = run_identity_suite(6, 6)
    assert [r.name for r in results] == list(IDENTITY_NAMES)
    assert all(r.passed for r in results)


def test_identity_suite_caps():
    caps = {r.name: r.max_tested for r in run_identity_suite(30, 30)}
    assert caps["stirling2_three_way"] == 15
    assert caps["classical_limits_at_lambda0"] == 20
    assert caps["final_vs_closed_form"] == 24
    assert caps["ogf_egf_transforms"] == 20
    assert caps["derivation_operator_rows"] == 6


def test_identity_suite_degenerate_ranges():
    assert all(r.passed for r in run_identity_suite(0, 0))


def test_fault_injection_flips_named_identity():
    for name in ("stirling2_three_way", "ogf_egf_transforms"):
        results = run_identity_suite(5, 5, inject_fault=name)
        outcome = {r.name: r.passed for r in results}
        assert outcome[name] is False
        others = [ok for nm, ok in outcome.items() if nm != name]
        assert all(others)


def test_fault_injection_unknown_name():
    with pytest.raises(ValueError):
        run_identity_suite(5, 5, inject_fault="no_such_identity")


def test_suite_rejects_negative_ranges():
    with pytest.raises(ValueError):
        run_identity_suite(-1, 5)
