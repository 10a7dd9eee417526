"""Degenerate special number families, exact in the degeneracy parameter.

Degenerate Stirling numbers of both kinds, degenerate Bernoulli, Euler and
Bell numbers and their polynomial values at a rational argument, all as
polynomials in L.  Evaluating at L = 0 recovers the classical numbers; the
classical oracles at the bottom of this module compute those independently
(plain Fractions and integers, none of the L machinery) so the limits can
be cross-checked.

The Bernoulli and Euler numbers are computed from closed weighted sums over
the second-kind Stirling triangle; the polynomial values at x come from the
binomial convolution with degenerate falling factorials of x.  Each family
takes the value of L as ``lam``: LAM (the default) gives polynomials in L, a
Fraction gives the same numbers at that value, from the same code.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import LAM, Scalar, Value, linear_products, ring_one, times_linear
from .series import StirlingTable, egf_power_triangle, log_lambda_series

__all__ = [
    "StirlingTable",
    "stirling2_table",
    "stirling1_table",
    "bernoulli_deg_sequence",
    "euler_deg_sequence",
    "bell_deg_sequence",
    "bernoulli_deg_poly_sequence",
    "euler_deg_poly_sequence",
    "classical_bernoulli",
    "classical_euler",
    "classical_bell",
    "classical_oracles",
]


# The rows of each small triangle built so far, keyed by the value of L, so
# that the identity suite builds each row once however many families read
# it.  Triangles of more than _KEPT_ROWS rows (the CLI's) are not kept: they
# are built once per run, and keeping them would hold memory for the rest of
# it.  At most four values of L are kept.
_KEPT_ROWS = 32
_stirling2_rows: dict[Value, list[tuple]] = {}


def stirling2_table(nmax: int, lam: Value = LAM) -> StirlingTable:
    """Degenerate Stirling numbers of the second kind by the row recurrence

        next(k) = prev(k-1) + (k - n L) prev(k),

    as polynomials in L (lam = LAM) or as rationals at L = lam.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    kept = _stirling2_rows.get(lam, [(ring_one(lam),)])
    rows = list(kept)
    for n in range(len(rows) - 1, nmax):
        prev = rows[-1]
        rows.append(
            (times_linear(prev[0], 0, -n, lam),)
            + tuple(prev[k - 1] + times_linear(prev[k], k, -n, lam) for k in range(1, n + 1))
            + (prev[n],)
        )
    if len(kept) < len(rows) <= _KEPT_ROWS:
        if lam not in _stirling2_rows and len(_stirling2_rows) >= 4:
            _stirling2_rows.clear()
        _stirling2_rows[lam] = rows
    return StirlingTable(tuple(rows[: nmax + 1]))


def stirling1_table(nmax: int, lam: Value = LAM) -> StirlingTable:
    """Degenerate Stirling numbers of the first kind: n! [t^n] log_L(1+t)^k / k!."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    table = StirlingTable(egf_power_triangle(log_lambda_series(nmax), nmax))
    if lam is LAM:
        return table
    # The series code works over polynomials in L only, so at a rational lam
    # this triangle is built symbolically and then evaluated.
    return StirlingTable(tuple(tuple(v.eval_at(lam) for v in row) for row in table.entries))


def bernoulli_deg_sequence(nmax: int, lam: Value = LAM) -> list[Value]:
    """Degenerate Bernoulli numbers for n = 0..nmax: weight k is
    (-1)^k (1-L)(2-L)...(k-L) / (k+1)."""
    return stirling2_table(nmax, lam).weighted_sums(
        [
            p * Fraction((-1) ** k, k + 1)
            for k, p in enumerate(linear_products(1 - lam, 1, nmax))
        ]
    )


def euler_deg_sequence(nmax: int, lam: Value = LAM) -> list[Value]:
    """Degenerate Euler numbers for n = 0..nmax."""
    return stirling2_table(nmax, lam).weighted_sums(
        [Fraction((-1) ** k * math.factorial(k), 2**k) for k in range(nmax + 1)]
    )


def bell_deg_sequence(nmax: int, x: Scalar = 1, lam: Value = LAM) -> list[Value]:
    """Degenerate Bell polynomial values at x for n = 0..nmax (x = 1 gives
    the degenerate Bell numbers)."""
    x = Fraction(x)
    return stirling2_table(nmax, lam).weighted_sums([x**k for k in range(nmax + 1)])


def _convolve_at(base: list[Value], x: Fraction, lam: Value) -> list[Value]:
    # sum_k C(n,k) (x)_{n-k,L} base[k]
    falls = linear_products(x, -lam, len(base) - 1)
    return [
        sum(
            (falls[n - k] * base[k] * math.comb(n, k) for k in range(1, n + 1)),
            falls[n] * base[0],
        )
        for n in range(len(base))
    ]


def bernoulli_deg_poly_sequence(nmax: int, x: Scalar, lam: Value = LAM) -> list[Value]:
    """Degenerate Bernoulli polynomial values at a rational x, n = 0..nmax."""
    return _convolve_at(bernoulli_deg_sequence(nmax, lam), Fraction(x), lam)


def euler_deg_poly_sequence(nmax: int, x: Scalar, lam: Value = LAM) -> list[Value]:
    """Degenerate Euler polynomial values at a rational x, n = 0..nmax."""
    return _convolve_at(euler_deg_sequence(nmax, lam), Fraction(x), lam)


# -- classical oracles, deliberately independent of everything above --------


def classical_bernoulli(nmax: int) -> list[Fraction]:
    """Bernoulli numbers (B_1 = -1/2) via the binomial recurrence."""
    out = [Fraction(1)]
    for n in range(1, nmax + 1):
        s = sum(math.comb(n + 1, k) * out[k] for k in range(n))
        out.append(Fraction(-s, n + 1))
    return out


def classical_euler(nmax: int) -> list[Fraction]:
    """Euler polynomial values at 0, from the rational series of 2/(e^t + 1)."""
    denom = [Fraction(1)] + [
        Fraction(1, 2 * math.factorial(k)) for k in range(1, nmax + 1)
    ]
    inv = [Fraction(1)]
    for n in range(1, nmax + 1):
        inv.append(-sum(denom[k] * inv[n - k] for k in range(1, n + 1)))
    return [inv[n] * math.factorial(n) for n in range(nmax + 1)]


def classical_bell(nmax: int) -> list[int]:
    """Bell numbers via the Bell triangle."""
    out = [1]
    row = [1]
    for _ in range(nmax):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


def classical_oracles(n: int) -> tuple[Fraction, Fraction, int]:
    """(Bernoulli, Euler-at-0, Bell) classical values for a single index."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return classical_bernoulli(n)[n], classical_euler(n)[n], classical_bell(n)[n]
