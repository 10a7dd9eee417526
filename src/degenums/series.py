"""Truncated formal power series in t over the polynomial ring in L.

A series of order N stores the N+1 raw coefficients of t^0..t^N (no
factorial normalisation; exponential-generating-function views multiply or
divide by k! at the boundary).  Arithmetic between two series first
truncates both to the smaller order, so every kept coefficient is exact.

Also here: the degenerate exponential and logarithm series, the iterated
weighted derivation that generates the rows of the kind-B tables, the
weighted sums over a Stirling triangle (plain or nested weights), and the
extraction of degenerate Stirling numbers of both kinds from powers of
e_L(t) - 1 and log_L(1+t).
"""

from __future__ import annotations

import _thread
import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exact import LAM, ONE, ZERO, LambdaPoly, Scalar, Value, as_fraction, linear_products

__all__ = [
    "TruncatedSeries",
    "StirlingTable",
    "e_lambda_series",
    "e_lambda_x_series",
    "log_lambda_series",
    "apply_weighted_derivation",
    "powers",
    "egf_power_triangle",
    "stirling1_from_series",
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
        if order < 0:
            raise ValueError(f"order must be nonnegative, not {order}")
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

    def __mul__(self, other: object) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self._common(other)
        return TruncatedSeries(
            LambdaPoly.sum_of_products(zip(a._coeffs[: k + 1], b._coeffs[k::-1]))
            for k in range(a.order + 1)
        )

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
        """Substitute ``inner`` for t: coefficient n is sum_k f_k [t^n] inner^k,
        one row of the power triangle; ``inner`` must have a zero constant term."""
        order = min(self.order, inner.order)
        return TruncatedSeries(
            LambdaPoly.sum_of_products(zip(self._coeffs, row))
            for row in powers(inner.truncate(order))
        )

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        c0 = self._coeffs[0]
        if c0.is_zero or c0.degree > 0:
            raise ValueError("reciprocal requires a nonzero rational constant term")
        inv0 = 1 / c0.coeff(0)
        out: list[LambdaPoly] = [LambdaPoly.constant(inv0)]
        for n in range(1, self.order + 1):
            s = LambdaPoly.sum_of_products(zip(self._coeffs[1 : n + 1], out[n - 1 :: -1]))
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
    falls = linear_products(as_fraction(x, "e_lambda_x_series"), -LAM, order)
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


def apply_weighted_derivation(f: TruncatedSeries, n: int) -> tuple[TruncatedSeries, ...]:
    """The rows (g_0, ..., g_n) of the operator g_{j+1} = (t-1) g_j' - j L g_j
    from g_0 = f, each row carried into the next.

    Each step differentiates once, so one reliable top coefficient is lost
    per step and g_j is returned at order f.order - j rather than padded
    with unreliable values.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > f.order:
        raise ValueError(f"need a series of order >= {n}, got order {f.order}")
    g = f
    rows = [g]
    for j in range(n):
        d, minus_jlam = g.differentiate()._coeffs, LAM.scale(-j)
        g = TruncatedSeries(
            LambdaPoly.sum_of_products(
                ((d[m - 1] if m else ZERO, 1), (d[m], -1), (g._coeffs[m], minus_jlam))
            )
            for m in range(len(d))
        )
        rows.append(g)
    return tuple(rows)


class StirlingTable(namedtuple("StirlingTable", "entries")):
    """Triangular table of degenerate Stirling numbers (either kind),
    entries[n][k] for k <= n, as polynomials in L or as rationals at one
    value of L.  Entries outside the triangle read as zero.  The weighted
    sums take only a table over polynomials in L; the binomial convolutions
    of the number families over L map ``nested_row`` over rows built one at
    a time.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[Value, ...], ...]):
        if not entries:
            raise ValueError("a Stirling table needs row 0")
        for n, row in enumerate(entries):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries")
        return super().__new__(cls, entries)

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace checks as the constructor does
        return cls(*iterable)

    @property
    def nmax(self) -> int:
        return len(self.entries) - 1

    def entry(self, n: int, k: int) -> Value:
        if not 0 <= n <= self.nmax:
            raise IndexError(f"row {n} outside table of size {self.nmax}")
        if k < 0 or k > n:
            return self.entries[0][0] * 0
        return self.entries[n][k]

    def _poly_rows(self, weights: Sequence) -> tuple[tuple[LambdaPoly, ...], ...]:
        if len(weights) <= self.nmax:
            raise ValueError(f"need {self.nmax + 1} weights, got {len(weights)}")
        if not isinstance(self.entries[0][0], LambdaPoly):
            raise ValueError("weighted sums take a table over polynomials in L")
        return self.entries

    def weighted_sums(self, weights: Sequence[LambdaPoly | Scalar]) -> list[LambdaPoly]:
        """[sum_k entry(n, k) * weights[k] for n = 0..nmax] over polynomials
        in L, ``weighted_row(weights)`` mapped over the rows (weights may be
        plain rationals): every weighted Stirling sum over a plain weight
        vector goes through that one row function, here or over rows streamed
        one at a time (``numbers.row_sums``).  At a rational L the sums run on
        the integer rows of ``numbers``, so a table of rationals is refused."""
        return list(map(self.weighted_row(weights), self._poly_rows(weights)))

    def nested_sums(
        self, heads: Sequence[Scalar], start: tuple[int, int], step: tuple[int, int]
    ) -> list[LambdaPoly]:
        """The weighted sums for nested weights w_k = heads[k] prod_{j<k} f_j:
        rational heads and linear factors f_j = (a + j da) + (b + j db) L from
        the integer pairs start = (a, b) and step = (da, db), over polynomials
        in L, ``nested_row(heads, start, step)`` mapped over the rows: the
        one Horner loop, here or over rows streamed one at a time
        (``numbers.row_sums``)."""
        return list(map(self.nested_row(heads, start, step), self._poly_rows(heads)))

    @staticmethod
    def weighted_row(weights: Sequence[LambdaPoly | Scalar]) -> Callable[[tuple], LambdaPoly]:
        """The function of a row that ``weighted_sums`` maps: row -> sum_k
        row[k] * weights[k], one ``sum_of_products``."""
        return lambda row: LambdaPoly.sum_of_products(zip(row, weights))

    @staticmethod
    def nested_row(
        heads: Sequence[Scalar], start: tuple[int, int], step: tuple[int, int]
    ) -> Callable[[tuple], LambdaPoly]:
        """The function of a row that ``nested_sums`` maps: the row by
        Horner's rule, t_0 h_0 + f_0 (t_1 h_1 + f_1 (...)), one fused
        ``mul_linear_add`` per step, so no step multiplies two polynomials."""
        (a, b), (da, db) = start, step

        def nested(row: tuple) -> LambdaPoly:
            acc = row[-1].scale(heads[len(row) - 1])
            for k in range(len(row) - 2, -1, -1):
                acc = acc.mul_linear_add(a + k * da, b + k * db, row[k], heads[k])
            return acc

        return nested


# Only while run_identity_suite runs (it sets _keeping, and a child it forks
# inherits it) do the stores here, in numbers and in algorithms keep what they
# build, with no bound, and for later suites; elsewhere each call builds afresh.
_keeping = False


def _store(kept):
    return kept if _keeping else type(kept)()


# The power triangle of each series asked for in the suite, as (coefficients
# of g, rows), rows[n][k] = [t^n] g^k for k <= n, so that the compositions
# through e_L(t) - 1 and log_L(1+t) read one triangle each.  A request that
# agrees with a kept series on their common leading coefficients is cut from
# its triangle, which grows by appending rows to a longer order; a row held
# is never rebuilt.  One lock holds the lookup, growth and cut, so threads
# asking at once do not interleave their appends to a kept triangle.
_power_tables: list[tuple[list[LambdaPoly], list[tuple[LambdaPoly, ...]]]] = []
_power_lock = _thread.allocate_lock()


def powers(g: TruncatedSeries) -> tuple[tuple[LambdaPoly, ...], ...]:
    """The power triangle rows[n][k] = [t^n] g^k for 0 <= k <= n <= g.order;
    g must have a zero constant term, so g^k has no terms below t^k.  Each
    cell below row 0 and right of column 0 is one ``sum_of_products``,
    [t^n] g^k = sum_j g_j [t^(n-j)] g^(k-1), and the identity suite computes
    each once however many compositions read it (``_power_tables``)."""
    gs, top = g.coeffs, g.order + 1
    if not gs[0].is_zero:
        raise ValueError("a power triangle requires a zero constant term")
    with _power_lock:
        tables = _store(_power_tables)
        table = next((t for t in tables if tuple(t[0][:top]) == gs[: len(t[0])]), None)
        if table is None:
            table = ([], [(ONE,)])
            tables.append(table)
        base, rows = table
        base.extend(gs[len(base) :])
        for n in range(len(rows), top):
            rows.append((ZERO,) + tuple(
                LambdaPoly.sum_of_products(
                    (base[j], rows[n - j][k - 1]) for j in range(1, n - k + 2)
                )
                for k in range(1, n + 1)
            ))
        return tuple(rows[:top])


def egf_power_triangle(g: TruncatedSeries, nmax: int) -> tuple[tuple[LambdaPoly, ...], ...]:
    """Triangle t[n][k] = n! [t^n] g^k / k! for 0 <= k <= n <= nmax, each row
    of the power triangle scaled; g must have a zero constant term."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if g.order < nmax:
        raise ValueError(f"need a series of order >= {nmax}")
    return tuple(
        tuple(c.scale(Fraction(math.factorial(n), math.factorial(k))) for k, c in enumerate(row))
        for n, row in enumerate(powers(g.truncate(nmax)))
    )


def stirling2_from_series(nmax: int) -> StirlingTable:
    """Degenerate Stirling numbers of the second kind read off the series
    (e_L(t) - 1)^k / k!; an oracle independent of the row recurrence."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    em1 = e_lambda_series(nmax) - TruncatedSeries.constant(ONE, nmax)
    return StirlingTable(egf_power_triangle(em1, nmax))


def stirling1_from_series(nmax: int) -> StirlingTable:
    """Degenerate Stirling numbers of the first kind read off the series
    log_L(1+t)^k / k!; an oracle independent of the row recurrence."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    return StirlingTable(egf_power_triangle(log_lambda_series(nmax), nmax))
