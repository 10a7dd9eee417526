import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenums.exact import (
    LAM,
    ONE,
    ZERO,
    LambdaPoly,
    check_lam,
    classical_falling,
    format_rat,
    linear_products,
    parse_rat,
    ring_one,
    times_linear_add,
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


_int_or_fraction = st.one_of(
    st.just(0),
    st.integers(-(2**70), 2**70),
    st.fractions(max_denominator=10**9),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(_int_or_fraction, max_size=8))
@example(cs=[F(1, 2), F(-1, 2), 0, 0])  # trailing zeros
@example(cs=[F(-6, 4), 3, F(9, -6), F(-3, 2) + F(3, 2)])  # cancelling signs
@example(cs=[6, -4, 10])  # common factor, denominator 1
def test_constructor_gives_the_canonical_vector(cs):
    p = LambdaPoly(cs)
    expected = [F(c) for c in cs]
    while expected and expected[-1] == 0:
        expected.pop()
    assert p.coeffs == tuple(expected)
    assert p._den > 0 and math.gcd(p._den, *p._num) == 1


def test_constructor_still_reads_other_exact_inputs():
    assert LambdaPoly(["1/2"]).coeffs == LambdaPoly([Decimal("0.5")]).coeffs == (F(1, 2),)


def test_float_scale_rejected():
    with pytest.raises(TypeError):
        LAM.scale(0.5)
    with pytest.raises(TypeError):
        ONE.scale(0.1)
    with pytest.raises(TypeError):
        ZERO.scale(0.0)


def test_float_weights_rejected_by_sum_of_products():
    with pytest.raises(TypeError):
        LambdaPoly.sum_of_products([(LAM, 0.5)])
    # a float is rejected even when its partner is zero
    with pytest.raises(TypeError):
        LambdaPoly.sum_of_products([(ONE, 1), (ZERO, 0.5)])


def test_float_c_rejected_by_the_fused_step_over_polynomials():
    with pytest.raises(TypeError, match="takes an int or a Fraction, not float"):
        times_linear_add(ONE, 1, 1, ONE, 0.5, LAM)
    with pytest.raises(TypeError, match="takes an int or a Fraction, not float"):
        ZERO.mul_linear_add(1, 1, ZERO, 1.0)


def test_float_c_rejected_by_the_fused_step_at_a_rational():
    # without the check the step returns the float 2.0
    with pytest.raises(TypeError, match="takes an int or a Fraction, not float"):
        times_linear_add(F(1), 1, 1, F(1), 0.5, F(1, 2))
    with pytest.raises(TypeError, match="takes an int or a Fraction, not float"):
        times_linear_add(F(1), 1, 1, F(1), 1.0, F(1, 2))


def test_float_eval_at_rejected():
    # 0.1 would otherwise be read as the binary rational 3602879701896397/2^55
    with pytest.raises(TypeError, match="takes an int or a Fraction, not float"):
        (ONE + LAM).eval_at(0.1)
    with pytest.raises(TypeError):
        ZERO.eval_at(0.5)


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
    # a negative power raises, as in TruncatedSeries.coeff and AlgorithmTable.entry
    for q, i in ((LambdaPoly((1, 2, 3)), -1), (p, -3), (ZERO, -1)):
        with pytest.raises(IndexError, match="negative"):
            q.coeff(i)
    assert ZERO.coeff(0) == 0


def test_mixed_scalar_operations():
    assert LAM + 1 == LambdaPoly((1, 1))
    assert 1 - LAM == LambdaPoly((1, -1))
    assert 2 * LAM == LambdaPoly((0, 2))
    assert LAM * F(1, 2) == LambdaPoly((0, F(1, 2)))


def _random_poly(rng: random.Random) -> LambdaPoly:
    degree = rng.randint(-1, 5)
    return LambdaPoly(rng.randint(-9, 9) for _ in range(degree + 1))


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


_polys = st.lists(_rationals, max_size=6).map(LambdaPoly)
_ints = st.integers(-12, 12)


@settings(deadline=None, max_examples=120)
@given(_polys, _polys, _polys, _ints, _ints, _rationals)
def test_ring_laws_on_random_inputs(a, b, c, i, j, k):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    # the fused linear step is the ring expression it replaces
    assert a.mul_linear_add(i, j, b, k) == a * (i + j * LAM) + b * k


# polynomials over one of several denominators, so that x and y in a fused
# step often differ in theirs
_over_den = st.tuples(
    st.lists(st.integers(-40, 40), max_size=6), st.sampled_from((1, 2, 3, 4, 6, 9, 35))
).map(lambda t: LambdaPoly(F(n, t[1]) for n in t[0]))


@settings(deadline=None, max_examples=300)
@given(_over_den, _ints, _ints, _over_den, _rationals | _ints)
def test_mul_linear_add_is_the_ring_expression(x, a, b, y, c):
    # the reference multiplies through the schoolbook __mul__; == compares
    # the stored integer vectors, so this also checks the canonical form
    expected = x * LambdaPoly((a, b)) + y.scale(c)
    assert x.mul_linear_add(a, b, y, c) == expected
    assert times_linear_add(x, a, b, y, c, LAM) == expected


@settings(deadline=None)
@given(_over_den, _ints, _ints, _rationals.filter(bool))
def test_mul_linear_add_cancels_to_canonical_zero(x, a, b, c):
    y = (x * LambdaPoly((a, b))).scale(1 / c)
    z = x.mul_linear_add(a, b, y, -c)
    assert z == ZERO and z._num == () and z._den == 1


def test_mul_linear_add_edge_cases():
    p = LambdaPoly((F(1, 2), 3))
    q = LambdaPoly((F(2, 3), 0, F(-5, 7)))
    assert ZERO.mul_linear_add(3, -7, q, F(3, 2)) == q.scale(F(3, 2))
    assert p.mul_linear_add(3, -7, ZERO, F(3, 2)) == p * LambdaPoly((3, -7))
    assert p.mul_linear_add(3, -7, q, 0) == p * LambdaPoly((3, -7))
    assert p.mul_linear_add(0, 0, q, -1) == -q
    assert ZERO.mul_linear_add(1, 1, ZERO, 5) == ZERO
    # 1/3 * 3 - 1 cancels, and the zero comes back over denominator 1
    z = LambdaPoly.constant(F(1, 3)).mul_linear_add(3, 0, ONE, -1)
    assert z == ZERO and z._den == 1
    # 1/6 (2 + 4L) + 1/3 (1 - 2L) = 2/3: the L terms cancel, the rest reduces
    w = LambdaPoly.constant(F(1, 6)).mul_linear_add(2, 4, ONE - LAM.scale(2), F(1, 3))
    assert w == LambdaPoly.constant(F(2, 3)) and (w._num, w._den) == ((2,), 3)
    # with y = ZERO the step is the product by a + bL alone
    assert ZERO.mul_linear_add(3, -7, ZERO, 1) == ZERO
    assert p.mul_linear_add(0, 0, ZERO, 1) == ZERO
    assert p.mul_linear_add(0, 1, ZERO, 1) == p * LAM
    assert p.mul_linear_add(5, 0, ZERO, 1) == p.scale(5)
    # 1/2 * (2 + 4L) = 1 + 2L and 3/4 (1 + 2L) * (2 - 6L) = 3/2 - 3/2 L - 9 L^2:
    # the common factors cancel against the denominator
    h = LambdaPoly.constant(F(1, 2)).mul_linear_add(2, 4, ZERO, 1)
    assert h == LambdaPoly((1, 2)) and (h._num, h._den) == ((1, 2), 1)
    r = LambdaPoly((F(3, 4), F(3, 2))).mul_linear_add(2, -6, ZERO, 1)
    assert r == LambdaPoly((F(3, 2), F(-3, 2), -9)) and (r._num, r._den) == ((3, -3, -18), 2)


def _coefficientwise(xs, ys, sign):
    # the reference for x + sign y: Fractions added index by index, then the
    # trailing zeros stripped
    out = [F(x) + sign * F(y) for x, y in itertools.zip_longest(xs, ys, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@settings(deadline=None, max_examples=300)
@given(_over_den, _over_den, _rationals | _ints)
@example(LambdaPoly((F(1, 2), 3)), LambdaPoly((F(2, 3), 0, F(-5, 7))), F(-3, 4))
@example(LambdaPoly((F(1, 6), F(1, 2))), LambdaPoly((F(1, 3), F(1, 2))), F(1, 6))
def test_add_and_sub_are_the_coefficientwise_sums(p, q, c):
    cases = [
        (p + q, p.coeffs, q.coeffs, 1),
        (p - q, p.coeffs, q.coeffs, -1),
        (q - p, q.coeffs, p.coeffs, -1),
        (c + p, (c,), p.coeffs, 1),
        (p + c, p.coeffs, (c,), 1),
        (c - p, (c,), p.coeffs, -1),
        (p - c, p.coeffs, (c,), -1),
    ]
    for got, xs, ys, sign in cases:
        expected = _coefficientwise(xs, ys, sign)
        assert got.coeffs == expected
        # == compares the stored integer vectors: the canonical form too
        assert got == LambdaPoly(expected)
    for z in (p - p, q - q, p + (-p), (p + c) - (c + p)):
        assert z == ZERO and z._num == () and z._den == 1


def _fold(pairs):
    # the reference: the schoolbook __mul__ and __add__, one pair at a time
    total = ZERO
    for x, y in pairs:
        total = total + x * y
    return total


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(_over_den, _over_den | _rationals | _ints | st.just(ZERO)), max_size=6))
def test_sum_of_products_is_the_fold(pairs):
    # == compares the stored integer vectors, so this also checks the canonical form
    assert LambdaPoly.sum_of_products(pairs) == _fold(pairs)
    assert LambdaPoly.sum_of_products(iter(pairs)) == _fold(pairs)


@settings(deadline=None)
@given(_over_den, _over_den, _rationals | _ints)
def test_sum_of_products_cancels_to_canonical_zero(x, y, c):
    z = LambdaPoly.sum_of_products([(x, y), (x, -y), (x, c), (x.scale(-1), c)])
    assert z == ZERO and z._num == () and z._den == 1


def test_sum_of_products_edge_cases():
    p = LambdaPoly((F(1, 2), 3))
    q = LambdaPoly((F(2, 3), 0, F(-5, 7)))
    for z in (
        LambdaPoly.sum_of_products([]),
        LambdaPoly.sum_of_products([(ZERO, q), (p, ZERO), (p, 0), (p, F(0))]),
        # 1/6 * 3 * L - 1/2 * L: two denominators, cancelled exactly
        LambdaPoly.sum_of_products([(LambdaPoly.constant(F(1, 6)), LAM.scale(3)), (LAM, F(-1, 2))]),
    ):
        assert z == ZERO and (z._num, z._den) == ((), 1)
    assert LambdaPoly.sum_of_products([(p, q)]) == p * q
    assert LambdaPoly.sum_of_products([(p, 2), (q, F(1, 3))]) == p.scale(2) + q.scale(F(1, 3))
    # the running denominator grows 2 -> 6 -> 42 and the sum still reduces
    r = LambdaPoly.sum_of_products([(p, ONE), (q, ONE), (LambdaPoly.constant(F(1, 7)), 1)])
    assert r == p + q + F(1, 7)


@settings(deadline=None, max_examples=300)
@given(
    _polys | _ints, _ints, _ints, _polys | _ints, _rationals | _ints,
    _rationals | st.sampled_from((0, 2, -1)),
)
# c = 1, as in every Stirling cell, and c = -(m+1), as in every kind-A/B cell
@example(LambdaPoly((F(1, 2), 3)), 2, -5, LambdaPoly((F(2, 3), 0, 1)), 1, F(-3, 7))
@example(LambdaPoly((F(1, 6), F(-2, 9))), 3, 1, LambdaPoly((F(5, 4),)), -4, F(1, 2))
# an int x, y, c and L, where the lane computes in plain ints
@example(3, 1, -2, -5, 4, 2)
@example(0, 7, 7, 0, 1, 0)
def test_times_linear_add_commutes_with_evaluation(x, a, b, y, c, q):
    # an int x or y is the same value in both rings
    xs, ys = (LambdaPoly.constant(v) if isinstance(v, int) else v for v in (x, y))
    xq, yq = (v if isinstance(v, int) else v.eval_at(q) for v in (x, y))
    lane = times_linear_add(xq, a, b, yq, c, q)
    assert type(lane) is (int if all(type(v) is int for v in (xq, yq, c, q)) else F)
    assert lane == xs.mul_linear_add(a, b, ys, c).eval_at(q)
    assert lane == F(xq) * (a + b * F(q)) + F(yq) * F(c)


def test_rational_cell_uses_no_polynomial_kernel(monkeypatch):
    # the scalar-lane identity checks the two lanes against each other, so
    # the rational cell must not share a LambdaPoly kernel with the symbolic one
    def boom(*args):
        raise AssertionError("the rational lane reached LambdaPoly")

    for name in ("mul_linear_add", "eval_at", "__mul__", "__add__", "__init__", "_raw"):
        monkeypatch.setattr(LambdaPoly, name, boom)
    assert times_linear_add(F(2, 3), 1, -2, F(5, 7), -3, F(-3, 7)) == F(-19, 21)
    assert times_linear_add(2, 1, -2, 5, 1, 2) == -1


def test_lam_is_lam_itself_or_a_rational():
    for lam in (LAM, 0, -2, F(-3, 7)):
        check_lam(lam, "who")
    # equal to LAM but not LAM itself, and another polynomial: both rejected,
    # by the check and by the rational branch of the fused step
    for lam in (LambdaPoly((0, 1)), LAM + 1, ONE):
        with pytest.raises(TypeError, match="who takes LAM .* not a LambdaPoly other than LAM"):
            check_lam(lam, "who")
        with pytest.raises(TypeError, match="^times_linear_add takes LAM"):
            times_linear_add(F(1), 1, 1, F(1), 1, lam)
        with pytest.raises(TypeError, match="^ring_one takes LAM"):
            ring_one(lam)
    with pytest.raises(TypeError, match="an int or a Fraction, not float"):
        check_lam(0.5, "who")


@settings(deadline=None)
@given(_polys, _rationals)
def test_eval_at_is_the_substitution(p, q):
    assert p.eval_at(q) == sum((c * q**i for i, c in enumerate(p.coeffs)), F(0))
    assert type(p.eval_at(q)) is F


def test_ring_one_and_rational_linear_products():
    assert ring_one(LAM) == ONE and isinstance(ring_one(LAM), LambdaPoly)
    assert ring_one(F(-3, 7)) == 1 and type(ring_one(F(-3, 7))) is F
    q = F(2, 5)
    falls = linear_products(F(3), -q, 4)
    assert all(type(v) is F for v in falls)
    assert falls == [v.eval_at(q) for v in linear_products(F(3), -LAM, 4)]


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


def _render_by_fractions(p):
    # the per-coefficient Fraction formula the canonical rendering is defined by
    terms = []
    for i in range(p.degree + 1):
        c = p.coeff(i)
        if c:
            terms.append(format_rat(c) + ("" if i == 0 else "*L" if i == 1 else f"*L^{i}"))
    return " + ".join(terms) or "0"


_coefficients = st.one_of(
    st.just(0),
    st.integers(-(2**200), 2**200),
    st.fractions(max_denominator=10**6),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(_coefficients, max_size=8), st.integers(1, 10**12))
@example(coeffs=[7, 0, -(2**130), 1, 0, -1], den=1)  # denominator 1 throughout
def test_render_matches_the_fraction_formula(coeffs, den):
    p = LambdaPoly(coeffs)
    for q in (p, p.scale(F(1, den)), -p):
        assert q.render() == _render_by_fractions(q)


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
