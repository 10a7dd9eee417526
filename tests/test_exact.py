import random
from fractions import Fraction

import pytest

from degenums.exact import (
    LAM,
    ONE,
    ZERO,
    LambdaPoly,
    binomial_lambda,
    classical_falling,
    degenerate_falling,
    format_rat,
    parse_rat,
)

F = Fraction


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
    assert binomial_lambda(0) == ONE
    assert binomial_lambda(1) == ONE - LAM
    assert binomial_lambda(2) == LambdaPoly((1, F(-3, 2), F(1, 2)))


def test_binomial_lambda_at_zero_is_one():
    for k in range(31):
        assert binomial_lambda(k).eval_at(0) == 1


def test_binomial_lambda_degree():
    for k in range(1, 12):
        assert binomial_lambda(k).degree == k


def test_degenerate_falling_small():
    assert degenerate_falling(1, 0) == ONE
    assert degenerate_falling(1, 2) == ONE - LAM
    assert degenerate_falling(1, 3) == LambdaPoly((1, -3, 2))
    assert degenerate_falling(0, 3) == ZERO


def test_degenerate_falling_at_zero_is_power():
    for x in (F(2), F(1, 2), F(-3, 4)):
        for n in range(21):
            assert degenerate_falling(x, n).eval_at(0) == x**n


def test_classical_falling():
    assert classical_falling(LAM, 0) == ONE
    assert classical_falling(ONE - LAM, 1) == ONE - LAM
    two_m = LambdaPoly((2, -1))
    assert classical_falling(two_m, 2) == two_m * (ONE - LAM)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        binomial_lambda(-1)
    with pytest.raises(ValueError):
        degenerate_falling(1, -1)
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
    with pytest.raises(ValueError, match="zero coefficient"):
        LambdaPoly.parse("1 + 0")
