import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenums import numbers, series
from degenums.algorithms import (
    SequenceSpec,
    build_table,
    closed_form_final_sequence,
    final_sequence,
)
from degenums.exact import LAM, ONE, ZERO, LambdaPoly
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


def test_table_entry_outside_triangle_at_a_rational_lambda():
    t = stirling2_table(4, F(1, 2))
    assert t.entry(3, 4) == 0 and type(t.entry(3, 4)) is F


def test_stirling2_rows_are_built_once(monkeypatch, in_suite_scope):
    # Every cell of a triangle is one times_linear_add call; record them with
    # an empty row store, then run families that all read the same triangles.
    calls = []
    real = numbers.times_linear_add

    def counting(x, a, b, y, c, lam):
        calls.append((lam, a, b))
        return real(x, a, b, y, c, lam)

    monkeypatch.setattr(numbers, "_stirling2_rows", {})
    monkeypatch.setattr(numbers, "times_linear_add", counting)
    fresh = stirling2_table(20)
    assert len(calls) == 20 * 21 // 2
    bernoulli_deg_sequence(12)
    euler_deg_sequence(20)
    bell_deg_sequence(24, 2)
    euler_deg_poly_sequence(15, F(1, 3))
    assert stirling2_table(20) == fresh
    bell_deg_sequence(9, lam=F(-3, 7))
    bernoulli_deg_sequence(9, F(-3, 7))
    assert len(calls) == len(set(calls)) == 24 * 25 // 2 + 9 * 10 // 2


def test_rational_stirling_cells_are_plain_ints(monkeypatch):
    # at L = p/q the Stirling rows hold the integers q^(n-k) S(n, k), so no
    # cell of either kind builds a Fraction
    values = []
    real = numbers.times_linear_add

    def recording(*args):
        values.append(real(*args))
        return values[-1]

    monkeypatch.setattr(numbers, "_stirling2_rows", {})
    monkeypatch.setattr(numbers, "times_linear_add", recording)
    bernoulli_deg_sequence(40, F(-3, 7))
    stirling1_table(20, F(5, 3))
    assert len(values) == 40 * 41 // 2 + 20 * 21 // 2
    assert all(type(v) is int for v in values)


_DIGITS = st.integers(-(10**10) + 1, 10**10 - 1)
_NONZERO = st.integers(1, 10**10 - 1) | st.integers(-(10**10) + 1, -1)
_X = F(-2, 5)
_SYMBOLIC = {}


def _rational_lane(lam, n):
    # every table and family at n, flattened in one order
    return [
        *(v for row in stirling2_table(n, lam).entries for v in row),
        *(v for row in stirling1_table(n, lam).entries for v in row),
        *bernoulli_deg_sequence(n, lam),
        *euler_deg_sequence(n, lam),
        *bell_deg_sequence(n, _X, lam),
        *bernoulli_deg_poly_sequence(n, _X, lam),
        *euler_deg_poly_sequence(n, 1, lam),
    ]


@settings(deadline=None, max_examples=100)
@given(_DIGITS, _NONZERO, st.integers(0, 14), st.data())
@example(0, 1, 14, None)
@example(-7, 1, 14, None)
@example(9999999999, 9999999998, 14, None)
def test_rational_lane_equals_the_evaluated_polynomials(p, q, n, data):
    # p and q of up to 10 digits, L negative, 0 or whole included; a shorter
    # table is asked for first, so the row store serves a scaled prefix
    lam = F(p, q)
    if n not in _SYMBOLIC:
        _SYMBOLIC[n] = _rational_lane(LAM, n)
    with pytest.MonkeyPatch.context() as patched:  # as in_suite_scope does
        patched.setattr(numbers, "_stirling2_rows", {})
        patched.setattr(series, "_keeping", True)
        if data is not None:
            stirling2_table(data.draw(st.integers(0, n)), lam)
        values = _rational_lane(lam, n)
    assert all(type(v) is F for v in values)
    assert values == [v.eval_at(lam) for v in _SYMBOLIC[n]]


def test_float_lambda_leaves_the_row_store_clean(monkeypatch, in_suite_scope):
    # 0.5 == Fraction(1, 2) and both hash alike, so float rows stored under
    # 0.5 would be served to the exact lane afterwards
    monkeypatch.setattr(numbers, "_stirling2_rows", {})
    for call in (
        lambda: stirling2_table(3, 0.5),
        lambda: stirling1_table(3, 0.5),
        lambda: bernoulli_deg_sequence(3, 0.5),
        lambda: build_table("B", SequenceSpec.bernoulli(), 3, 0.5),
        lambda: build_table("B", SequenceSpec.custom([F(1), F(1, 2), F(1, 3), F(1, 4)]), 3, 0.5),
    ):
        with pytest.raises(TypeError, match="an int or a Fraction, not float"):
            call()
    assert numbers._stirling2_rows == {}
    half = F(1, 2)
    assert stirling2_table(3, half).entries[3] == (0, 0, F(3, 2), 1)
    values = [*stirling2_table(3, half).entries[3], *bernoulli_deg_sequence(3, half)]
    assert all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("lam", [LambdaPoly((0, 1)), LAM + 1], ids=["copy_of_LAM", "LAM_plus_1"])
def test_every_family_rejects_a_polynomial_other_than_lam(monkeypatch, in_suite_scope, lam):
    # the rings are told apart by `lam is LAM`: a copy equal to LAM once took
    # the slower generic path in some functions and raised ValueError in others
    monkeypatch.setattr(numbers, "_stirling2_rows", {})
    stirling2_table(3)  # the symbolic rows are kept under a key equal to the copy
    for call in (
        stirling2_table,
        stirling1_table,
        bernoulli_deg_sequence,
        euler_deg_sequence,
        lambda n, q: bell_deg_sequence(n, lam=q),
        lambda n, q: bernoulli_deg_poly_sequence(n, F(1, 2), q),
        lambda n, q: euler_deg_poly_sequence(n, 1, q),
    ):
        with pytest.raises(TypeError, match="takes LAM .* not a LambdaPoly other than LAM"):
            call(3, lam)
    assert list(numbers._stirling2_rows) == [LAM]


def test_nested_sums_take_the_path_of_their_ring(monkeypatch):
    # over polynomials in L the nested families run by Horner's rule, so no
    # row is a sum_of_products; at a rational L they touch no LambdaPoly
    def boom(*args):
        raise AssertionError("reached a LambdaPoly method")

    lam = F(-3, 7)
    families = (bernoulli_deg_sequence, lambda n, q: bernoulli_deg_poly_sequence(n, 1, q))
    monkeypatch.setattr(numbers, "_stirling2_rows", {})
    with monkeypatch.context() as patched:
        patched.setattr(LambdaPoly, "sum_of_products", classmethod(boom))
        symbolic = [family(8, LAM) for family in families]
    assert symbolic[0] == closed_form_final_sequence("B", SequenceSpec.bernoulli(), 8)
    expected = [[v.eval_at(lam) for v in values] for values in symbolic]
    for name, attr in list(vars(LambdaPoly).items()):
        if isinstance(attr, property):
            monkeypatch.setattr(LambdaPoly, name, property(boom))
        elif callable(attr) or isinstance(attr, classmethod):
            monkeypatch.setattr(LambdaPoly, name, boom)
    assert [family(8, lam) for family in families] == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda x: bell_deg_sequence(2, x),
        lambda x: bernoulli_deg_poly_sequence(2, x),
        lambda x: euler_deg_poly_sequence(2, x),
        lambda x: e_lambda_x_series(x, 2),
    ],
    ids=["bell", "bernoulli_poly", "euler_poly", "e_lambda_x"],
)
def test_float_argument_x_rejected(call):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="takes an int or a Fraction, not float"):
        call(0.1)
    call(F(1, 10))


def test_stirling2_rows_are_kept_only_in_the_suite(monkeypatch):
    # outside the identity suite no rows are kept; inside it a 40-row
    # triangle is kept and serves shorter requests, and the rows of every
    # value of L are kept
    store = {}
    monkeypatch.setattr(numbers, "_stirling2_rows", store)
    big = stirling2_table(40)
    stirling2_table(3, F(1, 2))
    assert store == {}
    monkeypatch.setattr(series, "_keeping", True)
    assert stirling2_table(40) == big
    kept = store[LAM]
    assert len(kept) == 41
    small = stirling2_table(20)
    assert small.entries == big.entries[:21]
    assert all(row is kept[n] for n, row in enumerate(small.entries))
    for q in range(1, 7):
        stirling2_table(3, F(q))
    assert len(store) == 7


_LANE_POINTS = (F(1, 2), F(-3, 7), F(0), F(5))


@pytest.mark.parametrize("lam", _LANE_POINTS)
def test_scalar_lane_of_every_family(lam):
    # Every family run at a rational L gives rationals (no value turned back
    # into a polynomial) equal to the symbolic value evaluated there.
    nmax = 10
    runs = [
        lambda q: bernoulli_deg_sequence(nmax, q),
        lambda q: euler_deg_sequence(nmax, q),
        lambda q: bell_deg_sequence(nmax, F(-2, 3), q),
        lambda q: bernoulli_deg_poly_sequence(nmax, F(1, 2), q),
        lambda q: euler_deg_poly_sequence(nmax, 1, q),
        lambda q: [v for row in stirling2_table(nmax, q).entries for v in row],
        lambda q: [v for row in stirling1_table(nmax, q).entries for v in row],
    ]
    for run in runs:
        lane = run(lam)
        assert all(type(v) is F for v in lane)
        assert lane == [p.eval_at(lam) for p in run(LAM)]


def _cli_values(nmax, lam):
    # every value the numbers and matrix commands print at one value of L:
    # both Stirling triangles, the five families and the six bundled runs
    values = [v for table in (stirling1_table, stirling2_table)
              for row in table(nmax, lam).entries for v in row]
    values += bernoulli_deg_sequence(nmax, lam) + euler_deg_sequence(nmax, lam)
    values += bell_deg_sequence(nmax, lam=lam)
    values += bernoulli_deg_poly_sequence(nmax, 1, lam) + euler_deg_poly_sequence(nmax, 1, lam)
    for kind in ("B", "A"):
        for seed in (SequenceSpec.bernoulli(), SequenceSpec.half_powers(), SequenceSpec.bell()):
            values += [v for row in build_table(kind, seed, nmax, lam).rows for v in row]
    return values


@pytest.fixture(scope="module")
def symbolic_cli_values():
    return _cli_values(40, LAM)


@pytest.mark.parametrize("lam", [2, 0, -1, F(-4, 9)])
def test_rational_lane_matches_symbolic_at_cli_sizes(symbolic_cli_values, lam):
    # the pinned CLI digests cover only L = 1/2 and -3/7 at n = 20
    lane = _cli_values(40, lam)
    assert all(type(v) is F for v in lane)
    assert lane == [p.eval_at(lam) for p in symbolic_cli_values]


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


# -- differential checks past the identity suite's caps --------------------------


def test_nested_bernoulli_matches_flat_closed_form_at_60():
    # the family sums by Horner's rule; the closed form takes the flat dot
    assert bernoulli_deg_sequence(60) == closed_form_final_sequence(
        "B", SequenceSpec.bernoulli(), 60
    )


def test_bernoulli_at_one_matches_kind_a_column_at_40():
    table = build_table("A", SequenceSpec.bernoulli(), 40)
    assert bernoulli_deg_poly_sequence(40, 1) == final_sequence(table)


def test_bernoulli_constant_terms_match_sympy_at_60():
    sympy = pytest.importorskip("sympy")
    values = bernoulli_deg_sequence(60)
    for n, v in enumerate(values):
        # current sympy takes B_1 = +1/2; this package has B_1 = -1/2
        expected = F(-1, 2) if n == 1 else F(str(sympy.bernoulli(n)))
        assert v.coeff(0) == expected


def test_classical_families_match_sympy_at_lambda_zero_to_200():
    sympy = pytest.importorskip("sympy")
    nmax, zero = 200, F(0)
    bern = bernoulli_deg_sequence(nmax, lam=zero)
    euler = euler_deg_sequence(nmax, lam=zero)
    bell = bell_deg_sequence(nmax, lam=zero)
    for n in range(nmax + 1):
        # sympy takes B_1 = +1/2; this package has B_1 = -1/2
        b = F(-1, 2) if n == 1 else F(str(sympy.bernoulli(n)))
        assert (bern[n], euler[n], bell[n]) == (
            b, F(str(sympy.euler(n, 0))), int(sympy.bell(n))
        ), n


def test_euler_sequence_matches_sympy_expansion_with_symbolic_lambda():
    sympy = pytest.importorskip("sympy")
    L, t = sympy.symbols("L t")
    nmax = 4
    expansion = sympy.series(2 / ((1 + L * t) ** (1 / L) + 1), t, 0, nmax + 1).removeO()
    values = euler_deg_sequence(nmax)
    for n in range(nmax + 1):
        coeff = sympy.Poly(sympy.simplify(expansion.coeff(t, n) * sympy.factorial(n)), L)
        expected = LambdaPoly(F(int(c.p), int(c.q)) for c in reversed(coeff.all_coeffs()))
        assert values[n] == expected, n


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


@pytest.mark.parametrize("oracle", [classical_bernoulli, classical_euler, classical_bell])
def test_classical_oracles_reject_a_negative_nmax(oracle):
    with pytest.raises(ValueError, match="nmax must be nonnegative"):
        oracle(-1)
    assert len(oracle(0)) == 1


def test_classical_oracles_tuple():
    # (Bernoulli, Euler-at-0, Bell) at n = 1, 2, 3, read from one prefix each
    oracles = list(zip(classical_bernoulli(3), classical_euler(3), classical_bell(3)))
    assert oracles[2] == (F(1, 6), 0, 2)
    assert oracles[1] == (F(-1, 2), F(-1, 2), 1)
    assert oracles[3] == (0, F(1, 4), 5)
