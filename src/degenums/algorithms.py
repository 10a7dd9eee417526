"""Seed-to-sequence table algorithms with a degeneracy weight.

A table run starts from a seed sequence (row 0) and repeatedly applies a
first-order row recurrence; column 0 of the resulting trapezoid is the
final sequence.  Two kinds are provided:

  B:  next(m) = (m     - (n-1) L) prev(m) - (m+1) prev(m+1)
  A:  next(m) = (m + 1 - (n-1) L) prev(m) - (m+1) prev(m+1)

Row n needs seed entries up to column n, so a run of `rows` rows is a
trapezoid: row n keeps columns 0..rows-n.  With the bundled seeds the final
sequences are the degenerate Bernoulli, Euler and Bell numbers (kind B) and
the degenerate Bernoulli and Euler polynomial values at 1 (kind A); the
closed forms and generating-function transforms here give independent
routes to the same values, reading kind A as kind B of the differenced
seed a_m - a_{m-1}.  The seeds and the table run take the value of L as
``lam``: LAM (the default) for polynomials in L, or a rational value, at
which ``table_rows`` steps reduced integer pairs and ``build_table`` makes a
Fraction of each once.
A custom seed holds its entries as polynomials in L, evaluated at ``lam``.
While the identity suite runs, ``build_table`` keeps the longest symbolic
run of each (kind, seed) and answers a shorter request with its
sub-trapezoid, so the identities that read the same run build it once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import repeat

from .exact import (
    LAM,
    ONE,
    LambdaPoly,
    Value,
    as_fraction,
    check_lam,
    linear_products,
    ring_one,
    times_linear_add,
)
from .numbers import stirling2_table
from .series import TruncatedSeries, _as_poly, _store, e_lambda_series, log_lambda_series

__all__ = [
    "SEED_VARIANTS",
    "SequenceSpec",
    "AlgorithmTable",
    "build_table",
    "table_rows",
    "final_sequence",
    "closed_form_final_sequence",
    "transform_check",
    "inverse_transform_check",
]

SEED_VARIANTS = ("bernoulli_seed", "half_powers", "bell_seed", "custom")


class SequenceSpec(namedtuple("SequenceSpec", "variant custom_values")):
    """A seed sequence: one of the three bundled variants or a custom list.

    bernoulli_seed(n) = C(n-L, n)/(n+1); half_powers(n) = (1/2)^n;
    bell_seed(0) = 0, bell_seed(n) = (-1)^n/n! for n >= 1.
    """

    __slots__ = ()

    def __new__(cls, variant: str, custom_values: tuple[Value, ...] | None = None):
        if variant not in SEED_VARIANTS:
            raise ValueError(f"unknown seed variant: {variant!r}")
        if (variant == "custom") != (custom_values is not None):
            raise ValueError("custom_values must be given exactly for the custom variant")
        if custom_values is not None:
            custom_values = tuple(map(_as_poly, custom_values))
        return super().__new__(cls, variant, custom_values)

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace checks as the constructor does
        return cls(*iterable)

    @classmethod
    def bernoulli(cls) -> "SequenceSpec":
        return cls("bernoulli_seed")

    @classmethod
    def half_powers(cls) -> "SequenceSpec":
        return cls("half_powers")

    @classmethod
    def bell(cls) -> "SequenceSpec":
        return cls("bell_seed")

    @classmethod
    def custom(cls, values) -> "SequenceSpec":
        return cls("custom", values)

    def values(self, count: int, lam: Value = LAM) -> list[Value]:
        """Seed entries 0..count-1, as polynomials in L or at L = lam; a
        custom seed that is too short fails with the required length."""
        if count < 0:
            raise ValueError("seed length must be nonnegative")
        one = ring_one(lam)
        if self.variant == "bernoulli_seed":
            prods = linear_products(1 - lam, 1, count)[:count]
            return [p * Fraction(1, math.factorial(n + 1)) for n, p in enumerate(prods)]
        if self.variant == "half_powers":
            return [one * Fraction(1, 2**n) for n in range(count)]
        if self.variant == "bell_seed":
            return [
                one * (Fraction((-1) ** n, math.factorial(n)) if n else 0)
                for n in range(count)
            ]
        assert self.custom_values is not None
        if count > len(self.custom_values):
            raise ValueError(
                f"custom seed provides {len(self.custom_values)} entries, "
                f"need at least {count}"
            )
        entries = self.custom_values[:count]
        return list(entries) if lam is LAM else [v.eval_at(lam) for v in entries]


class AlgorithmTable(namedtuple("AlgorithmTable", "rows")):
    """Trapezoidal run of the recurrence: rows[n] holds columns 0..row_count-n."""

    __slots__ = ()

    def entry(self, n: int, m: int) -> Value:
        if not 0 <= n <= self.row_count:
            raise IndexError(f"row {n} outside table of {self.row_count + 1} rows")
        if not 0 <= m < len(self.rows[n]):
            raise IndexError(f"column {m} outside row {n} of {len(self.rows[n])} columns")
        return self.rows[n][m]

    @property
    def row_count(self) -> int:
        return len(self.rows) - 1


# The longest symbolic run built in the identity suite for each (kind, seed),
# so that the identities that read the same run build it once (series._store).
# Column m of row n reads only seed entries 0..n+m, so a shorter run is the
# sub-trapezoid of a longer one.  The key holds no value of L, so runs at a
# rational L are not kept.
_kept_runs: dict[tuple[str, SequenceSpec], AlgorithmTable] = {}


def build_table(kind: str, seed: SequenceSpec, rows: int, lam: Value = LAM) -> AlgorithmTable:
    """Run the kind-B or kind-A recurrence for the given number of rows, over
    polynomials in L (lam = LAM) or at L = lam."""
    if kind not in ("B", "A"):
        raise ValueError(f"kind must be 'B' or 'A', got {kind!r}")
    if rows < 0:
        raise ValueError("rows must be nonnegative")
    check_lam(lam, "build_table")  # before the store lookup
    store = _store(_kept_runs) if lam is LAM else {}
    kept = store.get((kind, seed))
    if kept is not None and rows <= kept.row_count:
        return AlgorithmTable(tuple(kept.rows[n][: rows + 1 - n] for n in range(rows + 1)))
    run = table_rows(kind, seed.values(rows + 1, lam), lam)
    if lam is not LAM:
        run = (tuple(Fraction(*cell) for cell in row) for row in run)
    store[kind, seed] = table = AlgorithmTable(tuple(run))
    return table


def table_rows(kind: str, first: list[Value], lam: Value = LAM) -> Iterator[tuple]:
    """The rows of the run of ``kind`` ("B" or "A", not checked here) from
    row 0 ``first`` at L = lam, one at a time: row n, of len(first) - n
    cells, is built from row n - 1 only when it is asked for.  ``build_table``
    keeps every row; a caller that needs each row once holds one at a time.
    At a rational lam = p/q each cell is its reduced pair (numerator,
    denominator > 0), which ``exact.format_pairs`` renders: with x = xn/xd,
    y = yn/yd and g = gcd(xd, yd), cell x (a + b lam) + c y is the integers
    xn (aq + bp) (yd/g) + c q yn (xd/g) over q xd (yd/g), reduced by one gcd,
    and no Fraction is made."""
    shift = 0 if kind == "B" else 1
    if lam is LAM:
        prev = tuple(first)
        yield prev
        for n in range(1, len(prev)):
            prev = tuple(
                times_linear_add(prev[m], m + shift, 1 - n, prev[m + 1], -(m + 1), lam)
                for m in range(len(prev) - 1)
            )
            yield prev
        return
    check_lam(lam, "table_rows")
    p, q, gcd = lam.numerator, lam.denominator, math.gcd
    prev = tuple((v.numerator, v.denominator) for v in map(as_fraction, first, repeat("table_rows")))
    yield prev
    for n in range(1, len(prev)):
        row, bp = [], (1 - n) * p
        for m in range(len(prev) - 1):
            (xn, xd), (yn, yd) = prev[m], prev[m + 1]
            g = gcd(xd, yd)
            yd //= g
            num = xn * ((m + shift) * q + bp) * yd - (m + 1) * q * yn * (xd // g)
            den = q * xd * yd
            g = gcd(num, den)
            row.append((num // g, den // g))
        prev = tuple(row)
        yield prev


def final_sequence(table: AlgorithmTable) -> list[Value]:
    """Column 0 of the trapezoid, one value per row."""
    return [row[0] for row in table.rows]


def _kind_b_seed(kind: str, seed: SequenceSpec, count: int) -> list[Value]:
    """Entries 0..count-1 of the seed whose kind-B run has the same final
    sequence: the seed itself for kind B, a_0, a_1 - a_0, ... for kind A,
    whose OGF (1 - t) A(t) has the factor e_L(t) at t = 1 - e_L(t)."""
    a = seed.values(count)
    if kind == "B":
        return a
    return a[:1] + [a[m] - a[m - 1] for m in range(1, count)]


def closed_form_final_sequence(kind: str, seed: SequenceSpec, nmax: int) -> list[LambdaPoly]:
    """The final sequence sum_k S2_L(n, k) (-1)^k k! b_k over the kind-B
    seed b, bypassing the table recurrence."""
    if kind not in ("B", "A"):
        raise ValueError(f"kind must be 'B' or 'A', got {kind!r}")
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    b = _kind_b_seed(kind, seed, nmax + 1)
    signed = [b[k].scale(Fraction((-1) ** k * math.factorial(k))) for k in range(nmax + 1)]
    return stirling2_table(nmax).weighted_sums(signed)


def _final_egf(kind: str, seed: SequenceSpec, order: int) -> TruncatedSeries:
    finals = final_sequence(build_table(kind, seed, order))
    return TruncatedSeries(
        finals[n].scale(Fraction(1, math.factorial(n))) for n in range(order + 1)
    )


def transform_check(
    kind: str, seed: SequenceSpec, order: int
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the forward transform, truncated at the given order.

    Returns (egf, transformed): the exponential generating function of the
    final sequence, and the ordinary generating function of the kind-B seed
    at 1 - e_L(t); for kind A, the differenced seed's stands for the paper's
    e_L(t) A(1 - e_L(t)).  The two are equal coefficient-wise; callers assert that.
    The seed's series at 1 - e_L(t) is taken as its series at -t composed
    with e_L(t) - 1, whose power table the suite's other oracles read too.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    egf = _final_egf(kind, seed, order)
    em1 = e_lambda_series(order) - TruncatedSeries.constant(ONE, order)
    ogf = TruncatedSeries(_kind_b_seed(kind, seed, order + 1))
    return egf, ogf.negate_variable().compose(em1)


def inverse_transform_check(
    kind: str, seed: SequenceSpec, order: int
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the inverse transform, truncated at the given order.

    Compares the ordinary generating function of the kind-B seed (for kind
    A, (1-t) times the seed's) against the final-sequence EGF evaluated at
    log_L(1-t), taken as the EGF at log_L(1+t) with -t put for t, so that it
    reads the power table of log_L(1+t).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    egf = _final_egf(kind, seed, order)
    rhs = egf.compose(log_lambda_series(order)).negate_variable()
    return TruncatedSeries(_kind_b_seed(kind, seed, order + 1)), rhs
