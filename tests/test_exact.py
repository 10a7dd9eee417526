import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenums.exact import (
    LAM,
    ONE,
    ZERO,
    LambdaPoly,
    classical_falling,
    format_rat,
    linear_products,
    parse_rat,
)

F = Fraction


def _binomial(k):
    # C(k - L, k) = (1-L)(2-L)...(k-L) / k!
    return linear_products(ONE - LAM, 1, k)[k].scale(F(1, math.factorial(k)))


def _falling(x, n):
    # degenerate falling factorial x(x - L)...(x - (n-1)L)
    return linear_products(F(x), -LAM, n)[n]


# -- rational scalars (backed by fractions.Fraction) -------------------------


def test_rational_arithmetic_examples():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert F(2, 4) * 2 == 1
    assert F(7, 3) - F(1, 3) == 2
    assert F(1, 2) / F(1, 4) == 2
    assert F(1, 3) < F(1, 2)


def test_rational_canonical_form():
    q = F(2, 4) * 2
    assert (q.numerator, q.denominator) == (1, 1)
    q = F(6, -4)
    assert q.denominator > 0 and q == F(-3, 2)


def test_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)
    with pytest.raises(ZeroDivisionError):
        F(1, 0)


def test_parse_rat():
    assert parse_rat("3") == 3
    assert parse_rat("-7/2") == F(-7, 2)
    assert parse_rat(" 5/6 ") == F(5, 6)
    for bad in ("0.5", "1/0", "x", "1 / 2", "", "1/-2"):
        with pytest.raises(ValueError):
            parse_rat(bad)


def test_format_rat():
    assert format_rat(F(3)) == "3"
    assert format_rat(F(-1, 2)) == "-1/2"
    assert format_rat(F(0)) == "0"


# -- polynomial canonical form ------------------------------------------------


def test_trailing_zeros_stripped():
    p = LambdaPoly((1, 2, 0, 0))
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1


def test_zero_polynomial():
    z = LambdaPoly((0, 0))
    assert z.is_zero and z.coeffs == () and z.degree == -1
    assert z == ZERO


def test_cancellation_gives_canonical_zero():
    assert (LAM + (-LAM)).coeffs == ()
    assert (LAM - LAM) == ZERO


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        LambdaPoly((0.5,))


def test_renormalization_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        p = LambdaPoly(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6))
        assert LambdaPoly(p.coeffs) == p


def test_difference_of_squares():
    assert (ONE + LAM) * (ONE - LAM) == LambdaPoly((1, 0, -1))


def test_eval_at():
    p = LambdaPoly((F(1, 6), 0, F(-1, 6)))
    assert p.eval_at(0) == F(1, 6)
    assert p.eval_at(1) == 0
    assert p.eval_at(F(1, 2)) == F(1, 8)


def test_coeff_access_and_scale():
    p = LambdaPoly((1, -3))
    assert p.coeff(0) == 1 and p.coeff(1) == -3 and p.coeff(5) == 0
    assert p.scale(F(1, 3)) == LambdaPoly((F(1, 3), -1))
    assert p.scale(0) == ZERO


def test_mixed_scalar_operations():
    assert LAM + 1 == LambdaPoly((1, 1))
    assert 1 - LAM == LambdaPoly((1, -1))
    assert 2 * LAM == LambdaPoly((0, 2))
    assert LAM * F(1, 2) == LambdaPoly((0, F(1, 2)))


def _random_poly(rng: random.Random) -> LambdaPoly:
    degree = rng.randint(-1, 5)
    return LambdaPoly(rng.randint(-9, 9) for _ in range(degree + 1))


def test_ring_laws_on_random_inputs():
    rng = random.Random(20250810)
    for _ in range(120):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_hash_consistency():
    assert hash(LambdaPoly((1, -1))) == hash(ONE - LAM)
    assert len({ONE, LambdaPoly((1,)), LAM}) == 2


# -- falling-factorial primitives ---------------------------------------------


def test_binomial_lambda_small():
    assert _binomial(0) == ONE
    assert _binomial(1) == ONE - LAM
    assert _binomial(2) == LambdaPoly((1, F(-3, 2), F(1, 2)))


def test_binomial_lambda_at_zero_is_one():
    for k in range(31):
        assert _binomial(k).eval_at(0) == 1


def test_binomial_lambda_degree():
    for k in range(1, 12):
        assert _binomial(k).degree == k


def test_degenerate_falling_small():
    assert _falling(1, 0) == ONE
    assert _falling(1, 2) == ONE - LAM
    assert _falling(1, 3) == LambdaPoly((1, -3, 2))
    assert _falling(0, 3) == ZERO


def test_degenerate_falling_at_zero_is_power():
    for x in (F(2), F(1, 2), F(-3, 4)):
        for n in range(21):
            assert _falling(x, n).eval_at(0) == x**n


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_linear = st.tuples(_rationals, _rationals).map(LambdaPoly)


@settings(deadline=None)
@given(_linear, _linear, st.integers(0, 8))
def test_linear_products_are_the_direct_products(a, c, n):
    prods = linear_products(a, c, n)
    assert len(prods) == n + 1
    for m, p in enumerate(prods):
        direct = ONE
        for j in range(m):
            direct = direct * (a + c.scale(j))
        assert p == direct


@settings(deadline=None)
@given(_rationals, st.integers(0, 8))
def test_linear_products_at_lambda_zero(x, n):
    falls = linear_products(x, -LAM, n)
    binomials = linear_products(ONE - LAM, 1, n)
    for m in range(n + 1):
        assert falls[m].eval_at(0) == x**m
        assert binomials[m].eval_at(0) == math.factorial(m)


def test_classical_falling():
    assert classical_falling(LAM, 0) == ONE
    assert classical_falling(ONE - LAM, 1) == ONE - LAM
    two_m = LambdaPoly((2, -1))
    assert classical_falling(two_m, 2) == two_m * (ONE - LAM)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        linear_products(ONE - LAM, 1, -1)
    with pytest.raises(ValueError):
        linear_products(1, -LAM, -1)
    with pytest.raises(ValueError):
        classical_falling(LAM, -2)


# -- canonical text form --------------------------------------------------------


def test_render_examples():
    assert ZERO.render() == "0"
    assert LambdaPoly((F(-1, 2), F(1, 2))).render() == "-1/2 + 1/2*L"
    assert LambdaPoly((F(1, 6), 0, F(-1, 6))).render() == "1/6 + -1/6*L^2"
    assert (ONE - LAM).render() == "1 + -1*L"
    assert LAM.render() == "1*L"
    assert LambdaPoly((0, 0, 0, F(5, 3))).render() == "5/3*L^3"


def test_parse_inverts_render():
    rng = random.Random(99)
    for _ in range(150):
        p = _random_poly(rng).scale(F(1, rng.randint(1, 12)))
        assert LambdaPoly.parse(p.render()) == p


def test_parse_examples():
    assert LambdaPoly.parse("0") == ZERO
    assert LambdaPoly.parse("1 + -1*L") == ONE - LAM
    assert LambdaPoly.parse("-1/4*L + 1/4*L^3") == LambdaPoly((0, F(-1, 4), 0, F(1, 4)))


def test_parse_rejects_malformed():
    for bad in (
        "",
        "1 +2*L",
        "1.5",
        "L",
        "2*L^1",
        "2*L^0",
        "1/0",
        "1 + 1",
        "0*L",
        "1 - 1*L",
    ):
        with pytest.raises(ValueError):
            LambdaPoly.parse(bad)
    for bad in ("2/4", "1/1", "01", "1*L + 1", "1 + 1*L + 2*L"):
        with pytest.raises(ValueError, match="not in canonical form"):
            LambdaPoly.parse(bad)
    with pytest.raises(ValueError, match="zero coefficient"):
        LambdaPoly.parse("1 + 0")
