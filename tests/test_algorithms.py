import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from degenums.series import TruncatedSeries, e_lambda_series

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
