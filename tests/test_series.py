import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenums.algorithms import (
    SequenceSpec,
    build_table,
    closed_form_final_sequence,
    inverse_transform_check,
    transform_check,
)
from degenums.exact import LAM, ONE, ZERO, LambdaPoly
from degenums.numbers import _convolve_at, _dots, stirling1_table, stirling2_table
from degenums.series import (
    StirlingTable,
    TruncatedSeries,
    apply_weighted_derivation,
    e_lambda_series,
    e_lambda_x_series,
    egf_power_triangle,
    log_lambda_series,
    powers,
    stirling1_from_series,
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
    assert f + TruncatedSeries.constant(ZERO, 5) == f.truncate(3)
    g = TruncatedSeries([1, 1])
    assert (f + g).order == 1
    assert (f - g).coeffs == (ZERO, ONE)


def test_coeff_out_of_range():
    with pytest.raises(IndexError):
        TruncatedSeries([1, 2]).coeff(2)
    with pytest.raises(ValueError):
        TruncatedSeries([1]).truncate(3)
    # the slice [: order + 1] would wrap: truncate(-3) of order 5 kept order 3
    f = e_lambda_series(5)
    for order in (-1, -3, -6):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            f.truncate(order)
    assert f.truncate(0).coeffs == (ONE,)


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


def _repeated_products(g):
    # the power triangle read off g^0, g^1, ..., g^order, each a series product
    product, columns = TruncatedSeries.constant(ONE, g.order), []
    for _ in range(g.order + 1):
        columns.append(product.coeffs)
        product = product * g
    return tuple(tuple(col[n] for col in columns[: n + 1]) for n in range(g.order + 1))


@settings(deadline=None, max_examples=60)
@given(series_of(8, zero_constant=True), st.lists(st.integers(0, 8), min_size=1, max_size=6))
def test_powers_are_repeated_products(g, requests):
    # requests for one series in any sequence of truncations and longer
    # orders: each triangle is the repeated products, and the kept triangle
    # grows one product cell at a time, each computed once, to the largest
    # order asked for.  A request with an equal series built from new objects
    # computes no cell.
    from degenums import series as series_module

    expected = [_repeated_products(g.truncate(m)) for m in requests]
    top = max(requests)
    widest = _repeated_products(g.truncate(top))
    twin = TruncatedSeries([LambdaPoly.parse(c.render()) for c in g.coeffs])
    # past the shared ZERO constant, no coefficient object is g's
    assert twin is not g and all(a is not b for a, b in zip(twin.coeffs[1:], g.coeffs[1:]))
    products = []
    real = LambdaPoly.sum_of_products

    def counting(cls, pairs):
        products.append(1)
        return real(pairs)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(series_module, "_power_tables", [])
        patched.setattr(series_module, "_keeping", True)  # as in_suite_scope does
        patched.setattr(LambdaPoly, "sum_of_products", classmethod(counting))
        for m, rows in zip(requests, expected):
            got = powers(g.truncate(m))
            assert type(got) is tuple and all(type(row) is tuple for row in got)
            assert got == rows
        assert len(products) == top * (top + 1) // 2
        assert powers(twin.truncate(top)) == widest
        assert len(products) == top * (top + 1) // 2
        assert len(series_module._power_tables) == 1


def test_power_tables_are_kept_only_in_the_suite(monkeypatch):
    # outside the identity suite no triangle is kept; inside it an order-33
    # triangle is kept and a shorter request is cut from it, and every
    # series asked for is kept
    from degenums import series as series_module

    kept = []
    monkeypatch.setattr(series_module, "_power_tables", kept)
    long = TruncatedSeries([ZERO, ONE, LAM] + [ONE] * 31)  # order 33
    assert powers(long) == _repeated_products(long)
    assert kept == []
    monkeypatch.setattr(series_module, "_keeping", True)
    rows = powers(long)
    assert rows == _repeated_products(long) and len(kept) == 1
    assert all(a is b for a, b in zip(powers(long.truncate(32)), rows))
    for c in range(1, 7):
        g = TruncatedSeries([ZERO, LAM, LambdaPoly.constant(c)])
        assert powers(g) == _repeated_products(g)
    assert len(kept) == 7


def test_power_table_grown_from_four_threads_holds_the_repeated_products(monkeypatch, in_suite_scope):
    # four threads grow one kept triangle at once, with a thread switch
    # possible every microsecond; a later order-30 request must still read
    # only the repeated products, one row per order
    import sys
    import threading

    from degenums import series as series_module

    monkeypatch.setattr(series_module, "_power_tables", [])
    em1 = e_lambda_series(30) - TruncatedSeries.constant(ONE, 30)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=powers, args=(em1.truncate(24),)) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    (_, rows), = series_module._power_tables
    assert [len(row) for row in rows] == list(range(1, 26))
    assert powers(em1) == _repeated_products(em1)


def test_powers_and_compose_match_sympy():
    # an oracle outside the package: sympy's own polynomial arithmetic in t
    # and L expands G(t)^k and f(G(t))
    sympy = pytest.importorskip("sympy")
    L, t = sympy.symbols("L t")

    def to_sympy(s):
        return sympy.Poly(
            sum(
                sympy.Rational(c.numerator, c.denominator) * L**j * t**i
                for i, p in enumerate(s.coeffs)
                for j, c in enumerate(p.coeffs)
            ),
            t,
            L,
            domain="QQ",
        )

    def cell(poly, n):
        # the coefficient of t^n as a LambdaPoly, read off each t^n L^j
        top = max(poly.degree(L), 0)
        return LambdaPoly(F(str(poly.coeff_monomial(t**n * L**j))) for j in range(top + 1))

    @settings(deadline=None, max_examples=40)
    @given(series, inner_series)
    def check(f, g):
        rows, big_g = powers(g), to_sympy(g)
        assert [len(row) for row in rows] == list(range(1, g.order + 2))
        for k in range(g.order + 1):
            power = big_g**k
            assert [row[k] for row in rows[k:]] == [cell(power, n) for n in range(k, g.order + 1)]
        composed = sum(
            (to_sympy(TruncatedSeries([c])) * big_g**k for k, c in enumerate(f.coeffs)),
            sympy.Poly(0, t, L, domain="QQ"),
        )
        order = min(f.order, g.order)
        assert f.compose(g).coeffs == tuple(cell(composed, n) for n in range(order + 1))

    check()


@settings(deadline=None, max_examples=80)
@given(series, series)
def test_mul_is_the_naive_convolution(f, g):
    # an independent reference: the schoolbook LambdaPoly product, summed
    # coefficient by coefficient up to the smaller order
    n = min(f.order, g.order)
    expected = [ZERO] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            expected[i + j] = expected[i + j] + f.coeff(i) * g.coeff(j)
    assert (f * g).coeffs == tuple(expected)


@settings(deadline=None, max_examples=60)
@given(series, series, series)
def test_mul_is_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


def test_powers_rejects_nonzero_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        powers(TruncatedSeries([1, 1]))
    with pytest.raises(ValueError, match="zero constant term"):
        powers(TruncatedSeries([LAM]))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([stirling1_table, stirling2_table]), orders, st.data())
def test_weighted_sums_of_unit_vector_is_column(make_table, nmax, data):
    table = make_table(nmax)
    k = data.draw(st.integers(min_value=0, max_value=nmax))
    unit = [ONE if i == k else ZERO for i in range(nmax + 1)]
    assert table.weighted_sums(unit) == [table.entry(n, k) for n in range(nmax + 1)]


# rationals over denominators that share factors or not, zeros included
lane_scalars = st.integers(-30, 30) | st.fractions(min_value=-30, max_value=30, max_denominator=60)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 7), st.data())
def test_rational_weighted_sums_are_the_fraction_sums(nmax, data):
    # the lane's one integer dot product per row against Fraction arithmetic,
    # term by term, with row denominators that share factors with the weights' or not
    rows = [
        data.draw(st.lists(st.integers(-900, 900), min_size=n + 1, max_size=n + 1))
        for n in range(nmax + 1)
    ]
    dens = data.draw(st.lists(st.integers(1, 60), min_size=nmax + 1, max_size=nmax + 1))
    weights = data.draw(st.lists(lane_scalars, min_size=nmax + 1, max_size=nmax + 3))
    sums = _dots(rows, dens, weights)
    assert all(type(v) is F for v in sums)
    assert sums == [
        sum((F(c) * F(w) for c, w in zip(row, weights)), F(0)) / den
        for row, den in zip(rows, dens)
    ]


def test_weighted_sums_needs_a_weight_per_column():
    with pytest.raises(ValueError, match="need 4 weights"):
        stirling2_table(3).weighted_sums([ONE, ONE, ONE])


def test_stirling_table_needs_row_0():
    # the kernels read the ring of the entries off entry (0, 0)
    with pytest.raises(ValueError, match="a Stirling table needs row 0"):
        StirlingTable(())


def test_stirling_table_replace_and_make_check_as_the_constructor_does():
    with pytest.raises(ValueError, match="a Stirling table needs row 0"):
        StirlingTable(((ONE,),))._replace(entries=())
    with pytest.raises(ValueError, match="row 1 must have 2 entries"):
        StirlingTable._make([((ONE,), (ONE,))])
    assert StirlingTable(((ONE,),))._replace(entries=((LAM,),)) == StirlingTable(((LAM,),))


# -- nested sums: Horner over polynomials; integer rows at a rational L ---------

# s >> 1 against a non-integer x scales row n by (qs)^n; -7 is s = 1
_LANE_POINTS = (F(1, 2), F(-3, 7), F(0), F(9999999999, 9999999998), F(-7))
small_ints = st.integers(min_value=-4, max_value=4)


def _direct_weights(heads, start, step):
    # w_k = h_k prod_{j<k} ((a + j da) + (b + j db) L), by plain polynomial products
    (a, b), (da, db) = start, step
    out, prod = [], ONE
    for k, head in enumerate(heads):
        if k:
            j = k - 1
            prod = prod * LambdaPoly((a + j * da, b + j * db))
        out.append(prod.scale(head))
    return out


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([stirling1_table, stirling2_table]), st.integers(0, 8), st.data())
def test_nested_weighted_sums_equal_the_multiplied_out_vector(make_table, nmax, data):
    heads = tuple(data.draw(st.lists(rationals, min_size=nmax + 1, max_size=nmax + 1)))
    start = data.draw(st.tuples(small_ints, small_ints))
    step = data.draw(st.tuples(small_ints, small_ints))
    direct = _direct_weights(heads, start, step)
    symbolic = make_table(nmax).nested_sums(heads, start, step)
    assert symbolic == make_table(nmax).weighted_sums(direct)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 8), rationals, st.data())
def test_nested_convolution_is_the_binomial_sum(nmax, x, data):
    # sum_k C(n,k) (x)_{n-k,L} base[k] with the falling factorials multiplied out
    base = data.draw(st.lists(polys, min_size=nmax + 1, max_size=nmax + 1))
    falls = [ONE]
    for j in range(nmax):
        falls.append(falls[-1] * LambdaPoly((x, -j)))
    direct = [
        sum((falls[n - k] * base[k] * math.comb(n, k) for k in range(n + 1)), ZERO)
        for n in range(nmax + 1)
    ]
    assert _convolve_at(base, x, LAM) == direct
    for lam in _LANE_POINTS:
        lane = _convolve_at([b.eval_at(lam) for b in base], x, lam)
        assert lane == [v.eval_at(lam) for v in direct]


def test_nested_weights_need_a_head_per_column():
    with pytest.raises(ValueError, match="need 4 weights"):
        stirling2_table(3).nested_sums((1, 1, 1), (1, -1), (1, 0))


def test_nested_weights_must_match_the_ring_of_the_entries():
    # at a rational L the sums run on numbers' integer rows, never on a table
    heads, table = (1, 1, 1, 1), stirling2_table(3, F(1, 2))
    with pytest.raises(ValueError, match="a table over polynomials in L"):
        table.nested_sums(heads, (1, -1), (1, 0))
    with pytest.raises(ValueError, match="a table over polynomials in L"):
        table.weighted_sums(heads)


def test_stirling1_recurrence_matches_series_triangle():
    series_table = stirling1_from_series(30)
    assert stirling1_table(30) == series_table
    half = F(1, 2)
    assert stirling1_table(30, half).entries == tuple(
        tuple(v.eval_at(half) for v in row) for row in series_table.entries
    )
    with pytest.raises(ValueError):
        stirling1_from_series(-1)


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
    assert apply_weighted_derivation(f, 0) == (f,)


def test_weighted_derivation_hand_folds():
    f = _half_powers_ogf(8)
    rows = apply_weighted_derivation(f, 2)
    assert rows[1].coeff(0) == LambdaPoly((F(-1, 2),))
    assert rows[2].coeff(0) == LAM.scale(F(1, 2))


def test_weighted_derivation_order_bookkeeping():
    f = _half_powers_ogf(8)
    rows = apply_weighted_derivation(f, 8)
    assert [g.order for g in rows] == [8 - n for n in range(9)]
    with pytest.raises(ValueError):
        apply_weighted_derivation(f, 9)


@pytest.mark.parametrize("seed", ["bernoulli", "half_powers", "bell"])
def test_weighted_derivation_rows_are_the_kind_b_table(seed):
    # the carried rows reach the full depth of a 30-row kind-B run
    spec = getattr(SequenceSpec, seed)()
    rows = apply_weighted_derivation(TruncatedSeries(spec.values(31)), 30)
    assert tuple(g.coeffs for g in rows) == build_table("B", spec, 30).rows


# -- Stirling extraction -------------------------------------------------------


def test_stirling2_from_series_values():
    table = stirling2_from_series(6)
    for n in range(7):
        assert table.entry(n, n) == ONE
    assert table.entry(2, 1) == ONE - LAM
    assert table.entry(3, 1) == LambdaPoly((1, -3, 2))


def test_egf_power_triangle_rejects_a_negative_nmax():
    # as its callers do, before the series is truncated
    em1 = e_lambda_series(2) - TruncatedSeries.constant(ONE, 2)
    with pytest.raises(ValueError, match="nmax must be nonnegative"):
        egf_power_triangle(em1, -1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: closed_form_final_sequence("C", SequenceSpec.bell(), 2), "kind must be"),
        (lambda: transform_check("B", SequenceSpec.bell(), -1), "order must be nonnegative"),
        (lambda: inverse_transform_check("A", SequenceSpec.bell(), -1), "order must be"),
        (lambda: stirling2_table(-1), "nmax must be nonnegative"),
        (lambda: stirling1_table(-1), "nmax must be nonnegative"),
        (lambda: e_lambda_x_series(F(1, 2), -1), "order must be nonnegative"),
        (lambda: log_lambda_series(-1), "order must be nonnegative"),
        (lambda: apply_weighted_derivation(e_lambda_series(3), -1), "n must be nonnegative"),
        (lambda: StirlingTable(((ONE,), (ONE,))), "row 1 must have 2 entries"),
        (lambda: egf_power_triangle(e_lambda_series(2), 2), "zero constant term"),
        (lambda: egf_power_triangle(log_lambda_series(2), 3), "order >= 3"),
        (lambda: stirling2_from_series(-1), "nmax must be nonnegative"),
    ],
    ids=[
        "closed_form_kind", "transform_order", "inverse_transform_order",
        "stirling2_nmax", "stirling1_nmax", "e_lambda_x_order", "log_lambda_order",
        "derivation_steps", "stirling_row_length", "triangle_constant_term",
        "triangle_short_series", "stirling2_from_series_nmax",
    ],
)
def test_bad_sizes_and_shapes_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_stirling2_series_matches_recurrence_symbolically():
    ser = stirling2_from_series(15)
    rec = stirling2_table(15)
    for n in range(16):
        for k in range(n + 1):
            assert ser.entry(n, k) == rec.entry(n, k)
