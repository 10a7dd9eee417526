"""Truncated formal power series in t over the polynomial ring in L.

A series of order N stores the N+1 raw coefficients of t^0..t^N (no
factorial normalisation; exponential-generating-function views multiply or
divide by k! at the boundary).  Arithmetic between two series first
truncates both to the smaller order, so every kept coefficient is exact.

Also here: the degenerate exponential and logarithm series, the iterated
weighted derivation that generates the rows of the kind-B tables, and the
extraction of degenerate Stirling numbers of the second kind from powers
of e_L(t) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import LAM, ONE, ZERO, LambdaPoly, Scalar, linear_products

__all__ = [
    "TruncatedSeries",
    "StirlingTable",
    "e_lambda_series",
    "e_lambda_x_series",
    "log_lambda_series",
    "apply_weighted_derivation",
    "powers",
    "egf_power_triangle",
    "stirling2_from_series",
]


def _as_poly(value: LambdaPoly | Scalar) -> LambdaPoly:
    if isinstance(value, LambdaPoly):
        return value
    return LambdaPoly.constant(value)


class TruncatedSeries:
    """Immutable truncated power series; order = number of kept coefficients - 1."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[LambdaPoly | Scalar]):
        cs = tuple(_as_poly(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the t^0 coefficient")
        object.__setattr__(self, "_coeffs", cs)

    @classmethod
    def constant(cls, value: LambdaPoly | Scalar, order: int) -> "TruncatedSeries":
        return cls((_as_poly(value),) + (ZERO,) * order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.constant(ZERO, order)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[LambdaPoly, ...]:
        return self._coeffs

    def coeff(self, k: int) -> LambdaPoly:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self._coeffs[k]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return TruncatedSeries(self._coeffs[: order + 1])

    def _common(self, other: "TruncatedSeries") -> tuple["TruncatedSeries", "TruncatedSeries"]:
        n = min(self.order, other.order)
        return self.truncate(n), other.truncate(n)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: object) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self._common(other)
        return TruncatedSeries(x + y for x, y in zip(a._coeffs, b._coeffs))

    def __sub__(self, other: object) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self._common(other)
        return TruncatedSeries(x - y for x, y in zip(a._coeffs, b._coeffs))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-c for c in self._coeffs)

    def __mul__(self, other: object) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self._common(other)
        n = a.order
        out: list[LambdaPoly] = [ZERO] * (n + 1)
        for i, u in enumerate(a._coeffs):
            if u.is_zero:
                continue
            for j in range(n - i + 1):
                v = b._coeffs[j]
                if not v.is_zero:
                    out[i + j] = out[i + j] + u * v
        return TruncatedSeries(out)

    def scale(self, q: Scalar) -> "TruncatedSeries":
        return TruncatedSeries(c.scale(q) for c in self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- calculus and composition -------------------------------------------

    def differentiate(self) -> "TruncatedSeries":
        """Formal d/dt.  The top coefficient is lost, so the order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(
            self._coeffs[k + 1].scale(k + 1) for k in range(self.order)
        )

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``inner`` for t as sum_k f_k inner^k over the power table;
        ``inner`` must have a zero constant term."""
        if not inner.coeff(0).is_zero:
            raise ValueError("composition requires a zero constant term in the inner series")
        order = min(self.order, inner.order)
        out = [ZERO] * (order + 1)
        for f_k, power in zip(self._coeffs, powers(inner.truncate(order), order)):
            for n, c in enumerate(power._coeffs):
                if not (f_k.is_zero or c.is_zero):
                    out[n] = out[n] + f_k * c
        return TruncatedSeries(out)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        c0 = self._coeffs[0]
        if c0.is_zero or c0.degree > 0:
            raise ValueError("reciprocal requires a nonzero rational constant term")
        inv0 = 1 / c0.coeff(0)
        out: list[LambdaPoly] = [LambdaPoly.constant(inv0)]
        for n in range(1, self.order + 1):
            s = ZERO
            for k in range(1, n + 1):
                if not self._coeffs[k].is_zero:
                    s = s + self._coeffs[k] * out[n - k]
            out.append(s.scale(-inv0))
        return TruncatedSeries(out)

    def shift_down(self, k: int = 1) -> "TruncatedSeries":
        """Divide by t^k; the first k coefficients must vanish."""
        if not 0 <= k <= self.order:
            raise ValueError(f"cannot shift order {self.order} down by {k}")
        if any(not c.is_zero for c in self._coeffs[:k]):
            raise ValueError(f"series is not divisible by t^{k}")
        return TruncatedSeries(self._coeffs[k:])

    def negate_variable(self) -> "TruncatedSeries":
        """Substitute -t for t."""
        return TruncatedSeries(
            c if k % 2 == 0 else -c for k, c in enumerate(self._coeffs)
        )

    def __repr__(self) -> str:
        head = ", ".join(c.render() for c in self._coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


def e_lambda_x_series(x: Scalar, order: int) -> TruncatedSeries:
    """Series of e_L^x(t): coefficient of t^k is the degenerate falling
    factorial of x, length k, divided by k!."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    falls = linear_products(Fraction(x), -LAM, order)
    return TruncatedSeries(p.scale(Fraction(1, math.factorial(k))) for k, p in enumerate(falls))


def e_lambda_series(order: int) -> TruncatedSeries:
    """Series of e_L(t) = e_L^1(t)."""
    return e_lambda_x_series(1, order)


def log_lambda_series(order: int) -> TruncatedSeries:
    """Series of log_L(1+t), the compositional inverse of e_L(t) - 1 shifted
    to 1+t: coefficient of t^n is (-1)^(n-1) (1-L)(2-L)...(n-1-L) / n!."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    prods = linear_products(ONE - LAM, 1, order)[:order]
    return TruncatedSeries(
        [ZERO] + [p.scale(Fraction((-1) ** k, math.factorial(k + 1))) for k, p in enumerate(prods)]
    )


def apply_weighted_derivation(f: TruncatedSeries, n: int) -> TruncatedSeries:
    """Fold the operator step g -> (t-1) g' - j L g for j = 0..n-1.

    Each step differentiates once, so one reliable top coefficient is lost
    per step and the result is returned at order f.order - n rather than
    padded with unreliable values.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > f.order:
        raise ValueError(f"need a series of order >= {n}, got order {f.order}")
    g = f
    for j in range(n):
        d = g.differentiate()
        jlam = LAM.scale(j)
        out = []
        for m in range(d.order + 1):
            c = (d._coeffs[m - 1] if m > 0 else ZERO) - d._coeffs[m]
            if j > 0:
                c = c - jlam * g._coeffs[m]
            out.append(c)
        g = TruncatedSeries(out)
    return g


@dataclass(frozen=True)
class StirlingTable:
    """Triangular table of degenerate Stirling numbers (either kind),
    entries[n][k] for k <= n.  Entries outside the triangle read as zero.
    """

    entries: tuple[tuple[LambdaPoly, ...], ...]

    def __post_init__(self) -> None:
        for n, row in enumerate(self.entries):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries")

    @property
    def nmax(self) -> int:
        return len(self.entries) - 1

    def entry(self, n: int, k: int) -> LambdaPoly:
        if not 0 <= n <= self.nmax:
            raise IndexError(f"row {n} outside table of size {self.nmax}")
        if k < 0 or k > n:
            return ZERO
        return self.entries[n][k]

    def weighted_sums(self, weights: Sequence[LambdaPoly]) -> list[LambdaPoly]:
        """[sum_k entry(n, k) * weights[k] for n = 0..nmax]: every weighted
        Stirling sum in the package goes through this one kernel."""
        if len(weights) <= self.nmax:
            raise ValueError(f"need {self.nmax + 1} weights, got {len(weights)}")
        return [
            sum((c * w for c, w in zip(row, weights)), ZERO)
            for row in self.entries
        ]


def powers(g: TruncatedSeries, n: int) -> list[TruncatedSeries]:
    """The power table [g^0, g^1, ..., g^n], each at the order of g."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    table = [TruncatedSeries.constant(ONE, g.order)]
    for _ in range(n):
        table.append(table[-1] * g)
    return table


def egf_power_triangle(g: TruncatedSeries, nmax: int) -> tuple[tuple[LambdaPoly, ...], ...]:
    """Triangle t[n][k] = n! [t^n] g^k / k! for 0 <= k <= n <= nmax.

    g must have a zero constant term so that g^k contributes nothing below
    t^k and the triangle is exact.
    """
    if not g.coeff(0).is_zero:
        raise ValueError("triangle extraction requires a zero constant term")
    if g.order < nmax:
        raise ValueError(f"need a series of order >= {nmax}")
    cols = [power.coeffs for power in powers(g.truncate(nmax), nmax)]
    return tuple(
        tuple(
            cols[k][n].scale(Fraction(math.factorial(n), math.factorial(k)))
            for k in range(n + 1)
        )
        for n in range(nmax + 1)
    )


def stirling2_from_series(nmax: int) -> StirlingTable:
    """Degenerate Stirling numbers of the second kind read off the series
    (e_L(t) - 1)^k / k!; an oracle independent of the row recurrence."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    em1 = e_lambda_series(nmax) - TruncatedSeries.constant(ONE, nmax)
    return StirlingTable(egf_power_triangle(em1, nmax))
