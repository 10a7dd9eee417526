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
routes to the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import LAM, ONE, ZERO, LambdaPoly, linear_products
from .numbers import stirling2_table
from .series import TruncatedSeries, e_lambda_series, log_lambda_series

__all__ = [
    "SEED_VARIANTS",
    "SequenceSpec",
    "AlgorithmTable",
    "build_table",
    "final_sequence",
    "closed_form_final_sequence",
    "transform_check",
    "inverse_transform_check",
]

SEED_VARIANTS = ("bernoulli_seed", "half_powers", "bell_seed", "custom")


@dataclass(frozen=True)
class SequenceSpec:
    """A seed sequence: one of the three bundled variants or a custom list.

    bernoulli_seed(n) = C(n-L, n)/(n+1); half_powers(n) = (1/2)^n;
    bell_seed(0) = 0, bell_seed(n) = (-1)^n/n! for n >= 1.
    """

    variant: str
    custom_values: tuple[LambdaPoly, ...] | None = None

    def __post_init__(self) -> None:
        if self.variant not in SEED_VARIANTS:
            raise ValueError(f"unknown seed variant: {self.variant!r}")
        if (self.variant == "custom") != (self.custom_values is not None):
            raise ValueError("custom_values must be given exactly for the custom variant")

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
        return cls("custom", tuple(values))

    def values(self, count: int) -> list[LambdaPoly]:
        """Seed entries 0..count-1; fails with the required length for a
        custom seed that is too short."""
        if count < 0:
            raise ValueError("seed length must be nonnegative")
        if self.variant == "bernoulli_seed":
            prods = linear_products(ONE - LAM, 1, count)[:count]
            return [p.scale(Fraction(1, math.factorial(n + 1))) for n, p in enumerate(prods)]
        if self.variant == "half_powers":
            return [LambdaPoly.constant(Fraction(1, 2**n)) for n in range(count)]
        if self.variant == "bell_seed":
            return [
                LambdaPoly.constant(Fraction((-1) ** n, math.factorial(n)) if n else 0)
                for n in range(count)
            ]
        assert self.custom_values is not None
        if count > len(self.custom_values):
            raise ValueError(
                f"custom seed provides {len(self.custom_values)} entries, "
                f"need at least {count}"
            )
        return list(self.custom_values[:count])


@dataclass(frozen=True)
class AlgorithmTable:
    """Trapezoidal run of the recurrence: rows[n] holds columns 0..row_count-n."""

    rows: tuple[tuple[LambdaPoly, ...], ...]

    def entry(self, n: int, m: int) -> LambdaPoly:
        if not 0 <= n <= self.row_count:
            raise IndexError(f"row {n} outside table of {self.row_count + 1} rows")
        if not 0 <= m < len(self.rows[n]):
            raise IndexError(f"column {m} outside row {n} of {len(self.rows[n])} columns")
        return self.rows[n][m]

    @property
    def row_count(self) -> int:
        return len(self.rows) - 1


def build_table(kind: str, seed: SequenceSpec, rows: int) -> AlgorithmTable:
    """Run the kind-B or kind-A recurrence for the given number of rows."""
    if kind not in ("B", "A"):
        raise ValueError(f"kind must be 'B' or 'A', got {kind!r}")
    if rows < 0:
        raise ValueError("rows must be nonnegative")
    shift = 0 if kind == "B" else 1
    table: list[tuple[LambdaPoly, ...]] = [tuple(seed.values(rows + 1))]
    for n in range(1, rows + 1):
        prev = table[-1]
        table.append(
            tuple(
                prev[m] * LambdaPoly((m + shift, -(n - 1)))
                - prev[m + 1].scale(m + 1)
                for m in range(len(prev) - 1)
            )
        )
    return AlgorithmTable(tuple(table))


def final_sequence(table: AlgorithmTable) -> list[LambdaPoly]:
    """Column 0 of the trapezoid, one value per row."""
    return [row[0] for row in table.rows]


def closed_form_final_sequence(kind: str, seed: SequenceSpec, nmax: int) -> list[LambdaPoly]:
    """The final sequence directly from weighted Stirling sums, bypassing
    the table recurrence."""
    if kind not in ("B", "A"):
        raise ValueError(f"kind must be 'B' or 'A', got {kind!r}")
    seeds = seed.values(nmax + 1)
    signed = [seeds[k].scale(Fraction((-1) ** k * math.factorial(k))) for k in range(nmax + 1)]
    if kind == "B":
        return stirling2_table(nmax).weighted_sums(signed)
    # kind A: sum_k (S2(n+1, k+1) + n L S2(n, k+1)) signed[k]
    a = stirling2_table(nmax + 1).weighted_sums([ZERO] + signed)
    return [a[n + 1] + a[n] * LAM.scale(n) for n in range(nmax + 1)]


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
    final sequence, and the seed's ordinary generating function evaluated at
    1 - e_L(t) (kind A additionally multiplies by e_L(t)).  The two series
    are equal coefficient-wise; callers assert that.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    egf = _final_egf(kind, seed, order)
    e = e_lambda_series(order)
    u = TruncatedSeries.constant(ONE, order) - e
    ogf = TruncatedSeries(seed.values(order + 1))
    transformed = ogf.compose(u)
    if kind == "A":
        transformed = e * transformed
    return egf, transformed


def inverse_transform_check(
    kind: str, seed: SequenceSpec, order: int
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the inverse transform, truncated at the given order.

    Kind B compares the seed's ordinary generating function against the
    final-sequence EGF evaluated at log_L(1-t); kind A compares (1-t) times
    the ordinary generating function against the same evaluation.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    egf = _final_egf(kind, seed, order)
    v = log_lambda_series(order).negate_variable()
    rhs = egf.compose(v)
    ogf_coeffs = seed.values(order + 1)
    if kind == "B":
        return TruncatedSeries(ogf_coeffs), rhs
    lhs = TruncatedSeries(
        [ogf_coeffs[0]]
        + [ogf_coeffs[m] - ogf_coeffs[m - 1] for m in range(1, order + 1)]
    )
    return lhs, rhs
