import math
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenums import algorithms, numbers, series
from degenums.algorithms import (
    SequenceSpec,
    build_table,
    closed_form_final_sequence,
    final_sequence,
    inverse_transform_check,
    transform_check,
)
from degenums.exact import LAM, ONE, ZERO, LambdaPoly, linear_products
from degenums.numbers import (
    bell_deg_sequence,
    bernoulli_deg_poly_sequence,
    bernoulli_deg_sequence,
    euler_deg_poly_sequence,
    euler_deg_sequence,
)
from degenums.series import TruncatedSeries, e_lambda_series, log_lambda_series

F = Fraction
P = LambdaPoly.parse

ALL_SEEDS = (SequenceSpec.bernoulli(), SequenceSpec.half_powers(), SequenceSpec.bell())


# -- seeds ---------------------------------------------------------------------


def test_seed_variants():
    bern = SequenceSpec.bernoulli().values(3)
    assert bern[0] == ONE
    assert bern[1] == (ONE - LAM).scale(F(1, 2))
    assert bern[2] == linear_products(ONE - LAM, 1, 2)[2].scale(F(1, math.factorial(2) * 3))
    half = SequenceSpec.half_powers().values(4)
    assert [v.coeff(0) for v in half] == [1, F(1, 2), F(1, 4), F(1, 8)]
    bell = SequenceSpec.bell().values(4)
    assert bell[0] == ZERO
    assert bell[3] == LambdaPoly.constant(F(-1, 6))


def test_seed_validation():
    with pytest.raises(ValueError):
        SequenceSpec("nonsense")
    with pytest.raises(ValueError):
        SequenceSpec("custom")  # custom without values
    with pytest.raises(ValueError):
        SequenceSpec("half_powers", custom_values=(ONE,))
    for seed in ALL_SEEDS + (SequenceSpec.custom([ONE]),):
        with pytest.raises(ValueError):
            seed.values(-1)


def test_seed_replace_and_make_check_as_the_constructor_does():
    with pytest.raises(ValueError, match="unknown seed variant: 'nonsense'"):
        SequenceSpec.half_powers()._replace(variant="nonsense")
    with pytest.raises(ValueError, match="custom_values must be given"):
        SequenceSpec._make(["custom", None])
    spec = SequenceSpec.half_powers()._replace(variant="custom", custom_values=(1, LAM))
    assert spec == SequenceSpec.custom([ONE, LAM]) and spec.custom_values == (ONE, LAM)


@settings(deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_seed_values_are_prefixes(m, n):
    m, n = min(m, n), max(m, n)
    for seed in ALL_SEEDS + (SequenceSpec.custom(SequenceSpec.bell().values(n)),):
        assert seed.values(m) == seed.values(n)[:m]


def test_custom_seed_too_short_names_required_length():
    seed = SequenceSpec.custom([ONE, LAM])
    assert seed.values(2) == [ONE, LAM]
    with pytest.raises(ValueError, match="need at least 4"):
        seed.values(4)
    with pytest.raises(ValueError, match="2 entries"):
        build_table("B", seed, 3)


# -- table construction ----------------------------------------------------------


def test_build_table_validation():
    with pytest.raises(ValueError):
        build_table("X", SequenceSpec.half_powers(), 2)
    with pytest.raises(ValueError):
        build_table("B", SequenceSpec.half_powers(), -1)


def test_trapezoid_shape_and_row0():
    table = build_table("B", SequenceSpec.half_powers(), 5)
    assert table.row_count == 5
    for n, row in enumerate(table.rows):
        assert len(row) == 6 - n
    assert list(table.rows[0]) == SequenceSpec.half_powers().values(6)


def test_entry_bounds_raise_instead_of_wrapping():
    table = build_table("B", SequenceSpec.half_powers(), 3)
    for n, m in ((-1, 0), (0, -1), (table.row_count + 1, 0), (1, 3)):
        with pytest.raises(IndexError, match="outside"):
            table.entry(n, m)
    assert table.entry(1, 2) == table.rows[1][2]


def test_known_entries():
    b_half = build_table("B", SequenceSpec.half_powers(), 2)
    assert b_half.entry(1, 0) == LambdaPoly.constant(F(-1, 2))
    b_bern = build_table("B", SequenceSpec.bernoulli(), 2)
    assert b_bern.entry(1, 1) == P("-1/6 + 1/2*L + -1/3*L^2")  # (1-L)(2L-1)/6
    a_half = build_table("A", SequenceSpec.half_powers(), 2)
    assert a_half.entry(2, 0) == LAM.scale(F(-1, 2))
    b_bell = build_table("B", SequenceSpec.bell(), 2)
    assert b_bell.entry(2, 0) == P("2 + -1*L")


def test_recurrence_invariant_every_cell():
    for kind, shift in (("B", 0), ("A", 1)):
        for seed in ALL_SEEDS:
            table = build_table(kind, seed, 6)
            for n in range(1, 7):
                for m in range(len(table.rows[n])):
                    expected = table.entry(n - 1, m) * LambdaPoly((m + shift, -(n - 1)))
                    expected = expected - table.entry(n - 1, m + 1).scale(m + 1)
                    assert table.entry(n, m) == expected


# -- final sequences ---------------------------------------------------------------


def test_final_sequence_bernoulli_column():
    table = build_table("B", SequenceSpec.bernoulli(), 3)
    finals = final_sequence(table)
    assert len(finals) == 4
    assert finals == [
        ONE,
        P("-1/2 + 1/2*L"),
        P("1/6 + -1/6*L^2"),
        P("-1/4*L + 1/4*L^3"),
    ]


def test_final_sequence_examples():
    assert final_sequence(build_table("B", SequenceSpec.half_powers(), 2))[2] == LAM.scale(F(1, 2))
    assert final_sequence(build_table("A", SequenceSpec.bernoulli(), 1))[1] == P("1/2 + 1/2*L")


def test_closed_form_examples():
    assert closed_form_final_sequence("B", SequenceSpec.bernoulli(), 2)[2] == P("1/6 + -1/6*L^2")
    assert closed_form_final_sequence("A", SequenceSpec.half_powers(), 2)[2] == LAM.scale(F(-1, 2))
    for kind in ("B", "A"):
        for seed in ALL_SEEDS:
            assert closed_form_final_sequence(kind, seed, 0)[0] == seed.values(1)[0]


def test_closed_form_rejects_a_negative_nmax():
    # both kinds check the size up front, as build_table does
    for kind in ("B", "A"):
        for seed in ALL_SEEDS:
            with pytest.raises(ValueError, match="nmax must be nonnegative"):
                closed_form_final_sequence(kind, seed, -1)


def test_closed_form_matches_recurrence():
    nmax = 12
    for kind in ("B", "A"):
        for seed in ALL_SEEDS:
            finals = final_sequence(build_table(kind, seed, nmax))
            assert closed_form_final_sequence(kind, seed, nmax) == finals


def test_named_family_identification():
    nmax = 12
    assert final_sequence(build_table("B", SequenceSpec.bernoulli(), nmax)) == \
        bernoulli_deg_sequence(nmax)
    assert final_sequence(build_table("B", SequenceSpec.half_powers(), nmax)) == \
        euler_deg_sequence(nmax)
    bell_finals = final_sequence(build_table("B", SequenceSpec.bell(), nmax))
    assert bell_finals[1:] == bell_deg_sequence(nmax)[1:]
    assert final_sequence(build_table("A", SequenceSpec.bernoulli(), nmax)) == \
        bernoulli_deg_poly_sequence(nmax, 1)
    assert final_sequence(build_table("A", SequenceSpec.half_powers(), nmax)) == \
        euler_deg_poly_sequence(nmax, 1)


# -- generating-function transforms --------------------------------------------------


def test_transform_pairs_agree():
    for kind in ("B", "A"):
        for seed in ALL_SEEDS:
            egf, transformed = transform_check(kind, seed, 10)
            assert egf == transformed
            lhs, rhs = inverse_transform_check(kind, seed, 10)
            assert lhs == rhs


def test_transform_half_powers_collapses_to_euler_series():
    order = 4
    _, transformed = transform_check("B", SequenceSpec.half_powers(), order)
    e = e_lambda_series(order)
    euler_egf = ((e + TruncatedSeries.constant(ONE, order)).scale(F(1, 2))).reciprocal()
    assert transformed == euler_egf


def test_transform_a_bernoulli_collapses():
    order = 4
    _, transformed = transform_check("A", SequenceSpec.bernoulli(), order)
    e_hi = e_lambda_series(order + 1)
    bern_egf = (e_hi - TruncatedSeries.constant(ONE, order + 1)).shift_down(1).reciprocal()
    assert transformed == bern_egf * e_lambda_series(order)


def test_transform_bell_collapses_to_shifted_exponential():
    order = 4
    _, transformed = transform_check("B", SequenceSpec.bell(), order)
    e = e_lambda_series(order)
    em1 = e - TruncatedSeries.constant(ONE, order)
    exp_series = TruncatedSeries(F(1, math.factorial(k)) for k in range(order + 1))
    expected = exp_series.compose(em1) - TruncatedSeries.constant(ONE, order)
    assert transformed == expected


def test_inverse_transform_order_zero_is_seed_head():
    for kind in ("B", "A"):
        for seed in ALL_SEEDS:
            lhs, rhs = inverse_transform_check(kind, seed, 0)
            assert lhs.coeffs == tuple(seed.values(1))
            assert rhs.coeffs == tuple(seed.values(1))


def test_inverse_transform_a_half_t_coefficient():
    lhs, _ = inverse_transform_check("A", SequenceSpec.half_powers(), 4)
    assert lhs.coeff(1) == LambdaPoly.constant(F(-1, 2))  # 1/2 - 1


def test_custom_seed_reproduces_bundled_run():
    values = SequenceSpec.bernoulli().values(7)
    custom = SequenceSpec.custom(values)
    assert build_table("B", custom, 6).rows == build_table("B", SequenceSpec.bernoulli(), 6).rows


@pytest.mark.parametrize("lam", [F(1, 2), F(-3, 7), F(0), F(2)])
def test_scalar_lane_table_runs(lam):
    # Seeds and table runs at a rational L are rationals equal to the
    # symbolic run evaluated there; a custom seed is evaluated first.
    custom = SequenceSpec.custom([P("1 + -1/2*L"), P("-2/3*L^2"), ZERO, P("5")] * 3)
    custom_at = SequenceSpec.custom([v.eval_at(lam) for v in custom.values(12)])
    for kind in ("B", "A"):
        for seed, seed_at in [(s, s) for s in ALL_SEEDS] + [(custom, custom_at)]:
            lane = build_table(kind, seed_at, 10, lam)
            symbolic = build_table(kind, seed, 10)
            assert all(type(v) is F for row in lane.rows for v in row)
            assert lane.rows == tuple(
                tuple(p.eval_at(lam) for p in row) for row in symbolic.rows
            )


def test_custom_seed_entries_are_polynomials_in_l():
    # ints, Fractions and constant polynomials make the same seed, which the
    # symbolic routes accept; a float is rejected when the seed is built
    specs = [
        SequenceSpec.custom([1, 2]),
        SequenceSpec.custom([F(1), F(2)]),
        SequenceSpec.custom([ONE, LambdaPoly.constant(2)]),
    ]
    assert specs[0] == specs[1] == specs[2]
    for kind in ("B", "A"):
        tables = [build_table(kind, s, 1) for s in specs]
        assert tables[0].rows[1] == (LambdaPoly.constant({"B": -2, "A": -1}[kind]),)
        assert tables[0] == tables[1] == tables[2]
        finals = [closed_form_final_sequence(kind, s, 1) for s in specs]
        assert finals[0] == finals[1] == finals[2] == final_sequence(tables[0])
        sides = [transform_check(kind, s, 1) for s in specs]
        assert sides[0] == sides[1] == sides[2]
        assert sides[0][0] == sides[0][1]
    with pytest.raises(TypeError, match="float"):
        SequenceSpec.custom([0.5])


def test_seed_constructor_holds_custom_entries_as_polynomials():
    # the constructor converts the entries as the classmethod does
    spec, two = SequenceSpec("custom", (1, 2)), LambdaPoly.constant(2)
    assert spec == SequenceSpec.custom([1, 2]) and hash(spec) == hash(SequenceSpec.custom([1, 2]))
    assert spec.custom_values == (ONE, two)
    assert build_table("B", spec, 1).rows == ((ONE, two), (-two,))
    assert build_table("A", spec, 1, F(1, 2)).rows == ((F(1), F(2)), (F(-1),))
    with pytest.raises(TypeError, match="float"):
        SequenceSpec("custom", (1, 0.5))


@pytest.mark.parametrize("lam", [LambdaPoly((0, 1)), LAM + 1], ids=["copy_of_LAM", "LAM_plus_1"])
@pytest.mark.parametrize(
    "seed", [*ALL_SEEDS, SequenceSpec.custom([1, 2])], ids=["bernoulli", "half", "bell", "custom"]
)
def test_a_polynomial_other_than_lam_is_no_value_of_l(lam, seed):
    # the bundled seeds once returned polynomials here and the custom one an
    # eval_at TypeError; every seed now fails alike, naming both rings
    for kind in ("B", "A"):
        with pytest.raises(TypeError, match="build_table takes LAM .* other than LAM"):
            build_table(kind, seed, 1, lam)
    with pytest.raises(TypeError, match="takes LAM .* other than LAM"):
        seed.values(2, lam)


def test_custom_seed_is_evaluated_at_lam():
    table = build_table("B", SequenceSpec.custom([ONE, LAM, ONE]), 2, F(1, 2))
    assert table.rows == ((F(1), F(1, 2), F(1)), (F(-1, 2), F(-3, 2)), (F(7, 4),))


def test_lambda_zero_degeneration_small():
    from degenums.audit import classical_algorithm_table

    rows = 8
    for kind in ("B", "A"):
        for seed in ALL_SEEDS:
            table = build_table(kind, seed, rows)
            seed0 = [v.eval_at(0) for v in seed.values(rows + 1)]
            classical = classical_algorithm_table(kind, seed0, rows)
            for n in range(rows + 1):
                for m in range(rows - n + 1):
                    assert table.entry(n, m).eval_at(0) == classical[n][m]


def _built_afresh(kind, seed, rows):
    # the run built with an empty store; the store is restored afterwards
    with patch.dict(algorithms._kept_runs, clear=True):
        return build_table(kind, seed, rows)


@pytest.mark.parametrize(
    "sizes, builds",
    [((24, 20, 12, 5, 0), 1), ((0, 5, 12, 20, 24), 5)],
    ids=["long_first", "short_first"],
)
def test_kept_run_answers_shorter_requests(monkeypatch, in_suite_scope, sizes, builds):
    # a request for fewer rows than a kept run is answered with its
    # sub-trapezoid; each run reads its seed once
    fresh = {
        (kind, seed, rows): _built_afresh(kind, seed, rows)
        for kind in ("B", "A") for seed in ALL_SEEDS for rows in sizes
    }
    runs = []
    real = SequenceSpec.values

    def counting(self, count, lam=LAM):
        runs.append(count)
        return real(self, count, lam)

    monkeypatch.setattr(algorithms, "_kept_runs", {})
    monkeypatch.setattr(SequenceSpec, "values", counting)
    for (kind, seed, rows), table in fresh.items():
        assert build_table(kind, seed, rows) == table
    assert len(runs) == 6 * builds
    assert [t.row_count for t in algorithms._kept_runs.values()] == [24] * 6


def test_build_table_keeps_runs_only_in_the_suite(monkeypatch):
    # outside the identity suite every run is built afresh and none is kept;
    # inside it a run of any length is kept, custom seeds' too, and a shorter
    # request is cut from it
    store = {}
    monkeypatch.setattr(algorithms, "_kept_runs", store)
    seed = SequenceSpec.half_powers()
    custom = SequenceSpec.custom([ONE, LAM, ZERO, ONE])
    long = build_table("B", seed, 40)
    build_table("A", custom, 3)
    assert store == {}
    monkeypatch.setattr(series, "_keeping", True)
    assert build_table("B", seed, 40) == long
    assert store == {("B", seed): long}
    run = build_table("B", seed, 33)
    assert run.rows == tuple(row[: 34 - n] for n, row in enumerate(long.rows[:34]))
    assert run.rows[33][0] is store["B", seed].rows[33][0]
    assert build_table("A", custom, 3) == store["A", custom]
    assert len(store) == 2


@pytest.mark.parametrize("lam", [F(1, 2), F(0), 2])
def test_rational_runs_are_not_kept(monkeypatch, in_suite_scope, lam):
    store = {}
    monkeypatch.setattr(algorithms, "_kept_runs", store)
    for kind in ("B", "A"):
        for seed in ALL_SEEDS:
            build_table(kind, seed, 5, lam)
    assert store == {}


def test_build_table_validates_before_the_store(monkeypatch, in_suite_scope):
    monkeypatch.setattr(algorithms, "_kept_runs", {})
    build_table("B", SequenceSpec.bell(), 4)
    with pytest.raises(ValueError, match="rows must be nonnegative"):
        build_table("B", SequenceSpec.bell(), -1)
    with pytest.raises(ValueError, match="kind must be"):
        build_table("C", SequenceSpec.bell(), 2)
    with pytest.raises(TypeError, match="build_table"):
        build_table("B", SequenceSpec.bell(), 2, 0.5)


@pytest.mark.parametrize(
    "argv",
    [
        ["numbers", "bernoulli", "--nmax", "20"],
        ["numbers", "stirling2", "--nmax", "20", "--lambda=1/2"],
        ["matrix", "A", "--seed", "bell", "--rows", "20"],
        ["audit"],
    ],
    ids=["bernoulli", "stirling2_at_half", "matrix_A_bell", "audit"],
)
def test_commands_leave_the_stores_empty(monkeypatch, capsys, argv):
    # only the identity suite keeps rows; every other command builds afresh
    from degenums.cli import main

    stores = {}, {}, []
    for module, name, store in zip(
        (numbers, algorithms, series), ("_stirling2_rows", "_kept_runs", "_power_tables"), stores
    ):
        monkeypatch.setattr(module, name, store)
    assert main(argv) == 0
    capsys.readouterr()
    assert stores == ({}, {}, [])


_small_polys = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4
).map(LambdaPoly)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from("BA"), st.lists(_small_polys, min_size=1, max_size=11), st.data())
def test_sub_trapezoid_of_a_longer_run_is_the_shorter_run(kind, values, data):
    # the fact the run store rests on: column m of row n reads only seed
    # entries 0..n+m
    seed = SequenceSpec.custom(values)
    big = data.draw(st.integers(0, len(values) - 1), label="R")
    small = data.draw(st.integers(0, big), label="r")
    long = _built_afresh(kind, seed, big)
    assert _built_afresh(kind, seed, small).rows == tuple(
        row[: small + 1 - n] for n, row in enumerate(long.rows[: small + 1])
    )


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from("BA"),
    st.sampled_from([F(1, 2), F(-3, 7), F(0), F(2)]),
    st.lists(_small_polys, min_size=1, max_size=11),
    st.data(),
)
def test_custom_run_at_lam_is_the_symbolic_run_evaluated_there(kind, lam, values, data):
    seed = SequenceSpec.custom(values)
    rows = data.draw(st.integers(0, len(values) - 1), label="r")
    lane = build_table(kind, seed, rows, lam)
    assert all(type(v) is F for row in lane.rows for v in row)
    assert lane.rows == tuple(
        tuple(p.eval_at(lam) for p in row) for row in build_table(kind, seed, rows).rows
    )


@settings(deadline=None, max_examples=40)
@given(st.sampled_from("BA"), st.lists(_small_polys, min_size=1, max_size=9))
def test_closed_form_and_transforms_hold_for_custom_seeds(kind, values):
    # the theorems hold for every seed, not only the bundled three
    seed = SequenceSpec.custom(values)
    n = len(values) - 1
    assert closed_form_final_sequence(kind, seed, n) == final_sequence(build_table(kind, seed, n))
    egf, transformed = transform_check(kind, seed, n)
    assert egf == transformed
    lhs, rhs = inverse_transform_check(kind, seed, n)
    assert lhs == rhs


def _assert_transforms_are_the_compositions_as_first_written(kind, seed, order):
    # the transforms as first written: the seed's series at 1 - e_L(t), and
    # the final EGF at log_L(1 - t)
    egf, forward = transform_check(kind, seed, order)
    ogf = TruncatedSeries(algorithms._kind_b_seed(kind, seed, order + 1))
    one_minus_e = TruncatedSeries.constant(ONE, order) - e_lambda_series(order)
    assert forward.coeffs == ogf.compose(one_minus_e).coeffs
    inverse = egf.compose(log_lambda_series(order).negate_variable())
    assert inverse_transform_check(kind, seed, order)[1].coeffs == inverse.coeffs


@pytest.mark.parametrize("kind", ["B", "A"])
@pytest.mark.parametrize("seed", ALL_SEEDS, ids=["bernoulli", "half", "bell"])
def test_transforms_are_the_compositions_as_first_written(kind, seed):
    # B(1 - e_L(t)) = B(-t) at e_L(t) - 1, and F(log_L(1 - t)) = F(log_L(1 + t))
    # at -t: both sides read the kept power tables now, with unchanged values
    _assert_transforms_are_the_compositions_as_first_written(kind, seed, 12)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from("BA"), st.lists(_small_polys, min_size=1, max_size=9))
def test_custom_transforms_are_the_compositions_as_first_written(kind, values):
    seed = SequenceSpec.custom(values)
    _assert_transforms_are_the_compositions_as_first_written(kind, seed, len(values) - 1)
