import math
from fractions import Fraction

import pytest

from degenums.exact import LAM, ONE, ZERO, LambdaPoly
from degenums.numbers import (
    bell_deg_sequence,
    bernoulli_deg_poly_sequence,
    bernoulli_deg_sequence,
    classical_bell,
    classical_bernoulli,
    classical_euler,
    classical_oracles,
    euler_deg_poly_sequence,
    euler_deg_sequence,
    stirling1_table,
    stirling2_table,
)
from degenums.series import TruncatedSeries, e_lambda_series, e_lambda_x_series

F = Fraction
P = LambdaPoly.parse


# -- Stirling triangles --------------------------------------------------------


def test_stirling2_boundary_invariants():
    t = stirling2_table(10)
    assert t.entry(0, 0) == ONE
    for n in range(1, 11):
        assert t.entry(n, n) == ONE
        assert t.entry(n, 0) == ZERO


def test_stirling2_row_recurrence_at_every_cell():
    t = stirling2_table(12)
    for n in range(12):
        for k in range(n + 2):
            expected = t.entry(n, k - 1) + LambdaPoly((k, -n)) * t.entry(n, k)
            assert t.entry(n + 1, k) == expected


def test_stirling2_values():
    t = stirling2_table(4)
    assert t.entry(2, 1) == ONE - LAM
    assert t.entry(3, 2) == (ONE - LAM).scale(3)
    assert t.entry(4, 2) == P("7 + -18*L + 11*L^2")


def _classical_stirling2(nmax):
    rows = [[1]]
    for n in range(nmax):
        prev = rows[-1]
        row = []
        for k in range(n + 2):
            left = prev[k - 1] if k >= 1 else 0
            right = prev[k] if k <= n else 0
            row.append(left + k * right)
        rows.append(row)
    return rows


def test_stirling2_classical_limit():
    t = stirling2_table(10)
    classical = _classical_stirling2(10)
    for n in range(11):
        for k in range(n + 1):
            assert t.entry(n, k).eval_at(0) == classical[n][k]


def test_stirling1_boundary_and_values():
    t = stirling1_table(6)
    assert t.entry(0, 0) == ONE
    for n in range(1, 7):
        assert t.entry(n, n) == ONE
        assert t.entry(n, 0) == ZERO
    assert t.entry(2, 1) == -(ONE - LAM)
    assert t.entry(3, 1) == LambdaPoly((2, -1)) * (ONE - LAM)


def _classical_stirling1_signed(nmax):
    # s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k)
    rows = [[1]]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        row = []
        for k in range(n + 1):
            left = prev[k - 1] if k >= 1 else 0
            right = prev[k] if k < len(prev) else 0
            row.append(left - (n - 1) * right)
        rows.append(row)
    return rows


def test_stirling1_classical_limit():
    t = stirling1_table(10)
    classical = _classical_stirling1_signed(10)
    for n in range(11):
        for k in range(n + 1):
            assert t.entry(n, k).eval_at(0) == classical[n][k]


def test_table_entry_bounds():
    t = stirling2_table(4)
    assert t.entry(3, 4) == ZERO
    assert t.entry(3, -1) == ZERO
    with pytest.raises(IndexError):
        t.entry(5, 0)


# -- the number families ---------------------------------------------------------


def test_bernoulli_deg_values():
    # beta_3 is cross-checked three ways (recurrence, weighted sum, series);
    # the commonly reprinted closed form for it is wrong.
    expected = ["1", "-1/2 + 1/2*L", "1/6 + -1/6*L^2", "-1/4*L + 1/4*L^3",
                "-1/30 + 2/3*L^2 + -19/30*L^4"]
    assert bernoulli_deg_sequence(4) == [P(s) for s in expected]
    assert bernoulli_deg_sequence(2)[2] == P("1/6 + -1/6*L^2")


def test_euler_deg_values():
    expected = ["1", "-1/2", "1/2*L", "1/4 + -1*L^2", "-3/2*L + 3*L^3"]
    assert euler_deg_sequence(4) == [P(s) for s in expected]
    assert euler_deg_sequence(2)[2] == LAM.scale(F(1, 2))


def test_bell_deg_values():
    expected = ["1", "1", "2 + -1*L", "5 + -6*L + 2*L^2",
                "15 + -30*L + 22*L^2 + -6*L^3"]
    assert bell_deg_sequence(4) == [P(s) for s in expected]
    assert bell_deg_sequence(3)[3] == P("5 + -6*L + 2*L^2")
    assert bell_deg_sequence(2, 1)[2] == P("2 + -1*L")


def test_classical_limits_up_to_20():
    nmax = 20
    bern = bernoulli_deg_sequence(nmax)
    euler = euler_deg_sequence(nmax)
    bell = bell_deg_sequence(nmax)
    cb = classical_bernoulli(nmax)
    ce = classical_euler(nmax)
    cl = classical_bell(nmax)
    for n in range(nmax + 1):
        assert bern[n].eval_at(0) == cb[n]
        assert euler[n].eval_at(0) == ce[n]
        assert bell[n].eval_at(0) == cl[n]


def test_generating_series_cross_check():
    nmax = 12
    e = e_lambda_series(nmax + 1)
    one_hi = TruncatedSeries.constant(ONE, nmax + 1)
    bern_egf = (e - one_hi).shift_down(1).reciprocal()
    e_lo = e_lambda_series(nmax)
    euler_egf = ((e_lo + TruncatedSeries.constant(ONE, nmax)).scale(F(1, 2))).reciprocal()
    bern = bernoulli_deg_sequence(nmax)
    euler = euler_deg_sequence(nmax)
    for n in range(nmax + 1):
        assert bern_egf.coeff(n).scale(math.factorial(n)) == bern[n]
        assert euler_egf.coeff(n).scale(math.factorial(n)) == euler[n]


def test_bell_exponential_series_cross_check():
    nmax = 12
    e = e_lambda_series(nmax)
    em1 = e - TruncatedSeries.constant(ONE, nmax)
    exp_series = TruncatedSeries(F(1, math.factorial(k)) for k in range(nmax + 1))
    for x in (1, 2, -1):
        egf = exp_series.compose(em1.scale(x))
        values = bell_deg_sequence(nmax, x)
        for n in range(nmax + 1):
            assert egf.coeff(n).scale(math.factorial(n)) == values[n]


# -- polynomial values at a point -------------------------------------------------


def test_bernoulli_poly_values():
    assert bernoulli_deg_poly_sequence(1, 1)[1] == P("1/2 + 1/2*L")
    for n in range(11):
        assert bernoulli_deg_poly_sequence(n, 0)[n] == bernoulli_deg_sequence(n)[n]
    assert bernoulli_deg_poly_sequence(2, 1)[2].eval_at(0) == F(1, 6)  # classical value at 1


def test_euler_poly_values():
    assert euler_deg_poly_sequence(1, 1)[1] == LambdaPoly((F(1, 2),))
    assert euler_deg_poly_sequence(2, 1)[2] == LAM.scale(F(-1, 2))
    for n in range(11):
        assert euler_deg_poly_sequence(n, 0)[n] == euler_deg_sequence(n)[n]


def _classical_poly_at_one(values):
    # p_n(1) = sum_k C(n,k) p_k for the binomial (Appell-style) families
    return [
        sum(math.comb(n, k) * values[k] for k in range(n + 1))
        for n in range(len(values))
    ]


def test_poly_at_one_classical_limits():
    nmax = 12
    b1 = bernoulli_deg_poly_sequence(nmax, 1)
    e1 = euler_deg_poly_sequence(nmax, 1)
    cb1 = _classical_poly_at_one(classical_bernoulli(nmax))
    ce1 = _classical_poly_at_one(classical_euler(nmax))
    for n in range(nmax + 1):
        assert b1[n].eval_at(0) == cb1[n]
        assert e1[n].eval_at(0) == ce1[n]
    assert e1[2].eval_at(0) == 0  # classical Euler polynomial at 1, n = 2


def test_euler_poly_series_cross_check():
    # independent route: series of 2/(e_L(t)+1) e_L^x(t)
    nmax = 8
    for x in (1, F(1, 2)):
        e = e_lambda_series(nmax)
        egf = ((e + TruncatedSeries.constant(ONE, nmax)).scale(F(1, 2))).reciprocal()
        egf = egf * e_lambda_x_series(x, nmax)
        values = euler_deg_poly_sequence(nmax, x)
        for n in range(nmax + 1):
            assert egf.coeff(n).scale(math.factorial(n)) == values[n]


def test_bernoulli_poly_series_cross_check():
    nmax = 8
    for x in (1, F(-1, 3)):
        e = e_lambda_series(nmax + 1)
        egf = (e - TruncatedSeries.constant(ONE, nmax + 1)).shift_down(1).reciprocal()
        egf = egf * e_lambda_x_series(x, nmax)
        values = bernoulli_deg_poly_sequence(nmax, x)
        for n in range(nmax + 1):
            assert egf.coeff(n).scale(math.factorial(n)) == values[n]


# -- inversion identities against the first-kind triangle -------------------------


def test_stirling1_inversion_identities():
    from degenums.exact import classical_falling

    nmax = 10
    s1 = stirling1_table(nmax)
    bern = bernoulli_deg_sequence(nmax)
    euler = euler_deg_sequence(nmax)
    bern1 = bernoulli_deg_poly_sequence(nmax, 1)
    euler1 = euler_deg_poly_sequence(nmax, 1)

    def weighted(values, n):
        return sum((s1.entry(n, k) * values[k] for k in range(n + 1)), ZERO)

    for n in range(nmax + 1):
        fall = classical_falling(LambdaPoly((n, -1)), n)
        assert weighted(bern, n) == fall.scale(F((-1) ** n, n + 1))
        assert weighted(euler, n) == LambdaPoly.constant(
            F((-1) ** n * math.factorial(n), 2**n)
        )
    for n in range(1, nmax + 1):
        fall = classical_falling(LambdaPoly((n - 1, -1)), n - 1)
        assert weighted(bern1, n) == ((LAM + ONE) * fall).scale(F((-1) ** (n - 1), n + 1))
        assert weighted(euler1, n) == LambdaPoly.constant(
            F((-1) ** (n - 1) * math.factorial(n), 2**n)
        )


# -- classical oracles -------------------------------------------------------------


def test_classical_bernoulli_table():
    expected = [F(1), F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42), 0, F(-1, 30), 0, F(5, 66)]
    assert classical_bernoulli(10) == expected


def test_classical_euler_table():
    expected = [F(1), F(-1, 2), 0, F(1, 4), 0, F(-1, 2), 0, F(17, 8), 0]
    assert classical_euler(8) == expected


def test_classical_bell_table():
    assert classical_bell(8) == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_classical_oracles_tuple():
    assert classical_oracles(2) == (F(1, 6), 0, 2)
    assert classical_oracles(1) == (F(-1, 2), F(-1, 2), 1)
    assert classical_oracles(3) == (0, F(1, 4), 5)
    with pytest.raises(ValueError):
        classical_oracles(-1)
