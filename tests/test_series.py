import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenums.exact import LAM, ONE, ZERO, LambdaPoly
from degenums.numbers import stirling1_table, stirling2_table
from degenums.series import (
    TruncatedSeries,
    apply_weighted_derivation,
    e_lambda_series,
    e_lambda_x_series,
    log_lambda_series,
    powers,
    stirling2_from_series,
)

F = Fraction

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
polys = st.lists(rationals, max_size=3).map(LambdaPoly)
orders = st.integers(min_value=0, max_value=6)


def series_of(order: int, zero_constant: bool = False):
    coeffs = st.lists(polys, min_size=order + 1, max_size=order + 1)
    if zero_constant:
        coeffs = coeffs.map(lambda cs: [ZERO] + cs[1:])
    return coeffs.map(TruncatedSeries)


series = orders.flatmap(series_of)
inner_series = orders.flatmap(lambda n: series_of(n, zero_constant=True))


def test_construction_and_order():
    s = TruncatedSeries([1, 2, 3])
    assert s.order == 2
    assert s.coeffs == (ONE, LambdaPoly((2,)), LambdaPoly((3,)))
    with pytest.raises(ValueError):
        TruncatedSeries([])


def test_mul_exact_to_order():
    one_plus_t = TruncatedSeries([1, 1, 0])
    one_minus_t = TruncatedSeries([1, -1, 0])
    assert (one_plus_t * one_minus_t).coeffs == (ONE, ZERO, -ONE)


def test_mul_truncates_to_smaller_order():
    t = TruncatedSeries([0, 1])
    assert (t * t).coeffs == (ZERO, ZERO)  # t^2 is beyond order 1


def test_add_identity_and_mixed_orders():
    f = TruncatedSeries([1, 2, 3, 4])
    assert f + TruncatedSeries.zero(5) == f.truncate(3)
    g = TruncatedSeries([1, 1])
    assert (f + g).order == 1
    assert (f - g).coeffs == (ZERO, ONE)


def test_coeff_out_of_range():
    with pytest.raises(IndexError):
        TruncatedSeries([1, 2]).coeff(2)
    with pytest.raises(ValueError):
        TruncatedSeries([1]).truncate(3)


def test_compose_simple():
    f = TruncatedSeries([1, 1, 0, 0])
    g = TruncatedSeries([0, 0, 1, 0])  # t^2
    assert f.compose(g).coeffs == (ONE, ZERO, ONE, ZERO)


def test_compose_identity_substitution():
    f = TruncatedSeries([LambdaPoly((1, 1)), LAM, ONE, LambdaPoly((0, 0, 5))])
    t = TruncatedSeries([0, 1, 0, 0])
    assert f.compose(t) == f


def test_compose_rejects_nonzero_constant():
    f = TruncatedSeries([1, 1])
    with pytest.raises(ValueError):
        f.compose(TruncatedSeries([1, 1]))


@settings(deadline=None, max_examples=60)
@given(series, series, inner_series)
def test_compose_is_multiplicative(f, h, g):
    assert (f * h).compose(g) == f.compose(g) * h.compose(g)


@settings(deadline=None, max_examples=60)
@given(series, series, inner_series)
def test_compose_is_additive(f, h, g):
    assert (f + h).compose(g) == f.compose(g) + h.compose(g)


@settings(deadline=None, max_examples=60)
@given(series, polys)
def test_compose_with_scaled_variable(f, c):
    ct = TruncatedSeries([ZERO, c] + [ZERO] * f.order)
    power = ONE
    expected = []
    for f_n in f.coeffs:
        expected.append(f_n * power)
        power = power * c
    assert f.compose(ct).coeffs == tuple(expected)


@settings(deadline=None, max_examples=60)
@given(series, orders)
def test_powers_are_repeated_products(g, n):
    table = powers(g, n)
    assert len(table) == n + 1
    product = TruncatedSeries.constant(ONE, g.order)
    for k in range(n + 1):
        assert table[k] == product
        product = product * g


def test_powers_rejects_negative_count():
    with pytest.raises(ValueError):
        powers(TruncatedSeries([0, 1]), -1)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([stirling1_table, stirling2_table]), orders, st.data())
def test_weighted_sums_of_unit_vector_is_column(make_table, nmax, data):
    table = make_table(nmax)
    k = data.draw(st.integers(min_value=0, max_value=nmax))
    unit = [ONE if i == k else ZERO for i in range(nmax + 1)]
    assert table.weighted_sums(unit) == [table.entry(n, k) for n in range(nmax + 1)]


def test_weighted_sums_needs_a_weight_per_column():
    with pytest.raises(ValueError, match="need 4 weights"):
        stirling2_table(3).weighted_sums([ONE, ONE, ONE])


def test_compositional_inverse_both_ways():
    order = 12
    e = e_lambda_series(order)
    lg = log_lambda_series(order)
    one = TruncatedSeries.constant(ONE, order)
    t = TruncatedSeries([ZERO, ONE] + [ZERO] * (order - 1))
    assert lg.compose(e - one) == t
    assert e.compose(lg) == one + t


def test_e_series_coefficients():
    e = e_lambda_series(4)
    assert e.coeff(0) == ONE
    assert e.coeff(1) == ONE
    assert e.coeff(2) == (ONE - LAM).scale(F(1, 2))
    assert e.coeff(3) == LambdaPoly((1, -3, 2)).scale(F(1, 6))


def test_e_series_at_lambda_zero_is_exponential():
    e = e_lambda_series(10)
    for k in range(11):
        assert e.coeff(k).eval_at(0) == F(1, math.factorial(k))


def test_e_x_series():
    assert e_lambda_x_series(0, 6) == TruncatedSeries.constant(ONE, 6)
    assert e_lambda_x_series(1, 8) == e_lambda_series(8)
    assert e_lambda_x_series(2, 3).coeff(2) == LambdaPoly((2, -1))


def test_log_series_coefficients():
    lg = log_lambda_series(3)
    assert lg.coeff(0) == ZERO
    assert lg.coeff(1) == ONE
    assert lg.coeff(2) == (ONE - LAM).scale(F(-1, 2))
    assert lg.coeff(3) == (LambdaPoly((2, -1)) * (ONE - LAM)).scale(F(1, 6))


def test_reciprocal_inverts():
    order = 10
    e = e_lambda_series(order + 1)
    em1_over_t = (e - TruncatedSeries.constant(ONE, order + 1)).shift_down(1)
    prod = em1_over_t * em1_over_t.reciprocal()
    assert prod == TruncatedSeries.constant(ONE, order)


def test_reciprocal_requires_rational_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([LAM, ONE]).reciprocal()
    with pytest.raises(ValueError):
        TruncatedSeries([0, 1]).reciprocal()


def test_shift_down():
    s = TruncatedSeries([0, 0, 1, 2])
    assert s.shift_down(2).coeffs == (ONE, LambdaPoly((2,)))
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2]).shift_down(1)
    with pytest.raises(ValueError):
        TruncatedSeries([0, 1]).shift_down(2)


def test_negate_variable():
    s = TruncatedSeries([1, 2, 3, 4])
    assert s.negate_variable().coeffs == (
        ONE,
        LambdaPoly((-2,)),
        LambdaPoly((3,)),
        LambdaPoly((-4,)),
    )


def test_differentiate():
    s = TruncatedSeries([5, 1, 2, 3])
    assert s.differentiate().coeffs == (ONE, LambdaPoly((4,)), LambdaPoly((9,)))
    with pytest.raises(ValueError):
        TruncatedSeries([1]).differentiate()


# -- the weighted derivation operator -----------------------------------------


def _half_powers_ogf(order: int) -> TruncatedSeries:
    return TruncatedSeries(F(1, 2**m) for m in range(order + 1))


def test_weighted_derivation_identity_at_zero_steps():
    f = _half_powers_ogf(6)
    assert apply_weighted_derivation(f, 0) == f


def test_weighted_derivation_hand_folds():
    f = _half_powers_ogf(8)
    assert apply_weighted_derivation(f, 1).coeff(0) == LambdaPoly((F(-1, 2),))
    assert apply_weighted_derivation(f, 2).coeff(0) == LAM.scale(F(1, 2))


def test_weighted_derivation_order_bookkeeping():
    f = _half_powers_ogf(8)
    for n in range(9):
        assert apply_weighted_derivation(f, n).order == 8 - n
    with pytest.raises(ValueError):
        apply_weighted_derivation(f, 9)


# -- Stirling extraction -------------------------------------------------------


def test_stirling2_from_series_values():
    table = stirling2_from_series(6)
    for n in range(7):
        assert table.entry(n, n) == ONE
    assert table.entry(2, 1) == ONE - LAM
    assert table.entry(3, 1) == LambdaPoly((1, -3, 2))


def test_stirling2_series_matches_recurrence_symbolically():
    ser = stirling2_from_series(15)
    rec = stirling2_table(15)
    for n in range(16):
        for k in range(n + 1):
            assert ser.entry(n, k) == rec.entry(n, k)
