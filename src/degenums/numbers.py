"""Degenerate special number families, exact in the degeneracy parameter.

Degenerate Stirling numbers of both kinds, degenerate Bernoulli, Euler and
Bell numbers and their polynomial values at a rational argument, all as
polynomials in L.  Evaluating at L = 0 recovers the classical numbers; the
classical oracles at the bottom of this module compute those independently
(plain Fractions and integers, none of the L machinery) so the limits can
be cross-checked.

Both Stirling triangles come from one row recurrence.  The Bernoulli and
Euler numbers are computed from closed weighted sums over the second-kind
Stirling triangle; the polynomial values at x come from the binomial
convolution with degenerate falling factorials of x.  The Bernoulli weights
and the falling factorials are products of linear factors in L, so those
sums go through ``StirlingTable.nested_sums``: by Horner's rule over
polynomials in L, multiplied out at a rational L.  Each family takes L as
``lam``: LAM (the default) gives polynomials in L, a Fraction gives the same
numbers at that value, from the same code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .exact import LAM, Scalar, Value, as_fraction, ring_one, times_linear_add
from .series import _KEPT_ROWS, StirlingTable

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
]


# The rows of each small triangle built so far, keyed by the value of L, so
# that the identity suite builds each row once however many families read
# it.  Triangles of more than _KEPT_ROWS rows (the CLI's) are not kept: they
# are built once per run, and keeping them would hold memory for the rest of
# it.  At most four values of L are kept.
_stirling2_rows: dict[Value, list[tuple]] = {}


def _stirling_rows(rows: list[tuple], nmax: int, cell: Callable) -> list[tuple]:
    # Extend a Stirling triangle to row nmax by next(k) = cell(prev(k), k, n,
    # prev(k-1)), where cell multiplies prev(k) by the kind's linear factor of
    # row n, column k and adds prev(k-1) (zero left of column 0).
    zero = rows[0][0] * 0
    for n in range(len(rows) - 1, nmax):
        prev = rows[-1]
        rows.append(
            tuple(cell(prev[k], k, n, prev[k - 1] if k else zero) for k in range(n + 1))
            + (prev[n],)
        )
    return rows


def stirling2_table(nmax: int, lam: Value = LAM) -> StirlingTable:
    """Degenerate Stirling numbers of the second kind by the row recurrence

        next(k) = prev(k-1) + (k - n L) prev(k),

    as polynomials in L (lam = LAM) or as rationals at L = lam.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    kept = _stirling2_rows.get(lam, [(ring_one(lam),)])
    rows = _stirling_rows(
        list(kept), nmax, lambda x, k, n, left: times_linear_add(x, k, -n, left, 1, lam)
    )
    if len(kept) < len(rows) <= _KEPT_ROWS:
        if lam not in _stirling2_rows and len(_stirling2_rows) >= 4:
            _stirling2_rows.clear()
        _stirling2_rows[lam] = rows
    return StirlingTable(tuple(rows[: nmax + 1]))


def stirling1_table(nmax: int, lam: Value = LAM) -> StirlingTable:
    """Degenerate Stirling numbers of the first kind, n! [t^n] log_L(1+t)^k / k!,
    by the row recurrence

        next(k) = prev(k-1) + (k L - n) prev(k),

    as polynomials in L (lam = LAM) or as rationals at L = lam.  No rows are
    kept.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    rows = _stirling_rows(
        [(ring_one(lam),)], nmax, lambda x, k, n, left: times_linear_add(x, -n, k, left, 1, lam)
    )
    return StirlingTable(tuple(rows))


def bernoulli_deg_sequence(nmax: int, lam: Value = LAM) -> list[Value]:
    """Degenerate Bernoulli numbers for n = 0..nmax: weight k is
    (-1)^k (1-L)(2-L)...(k-L) / (k+1), nested as heads (-1)^k/(k+1) and
    factors (k+1) - L."""
    return stirling2_table(nmax, lam).nested_sums(
        [Fraction((-1) ** k, k + 1) for k in range(nmax + 1)], (1, -1), (1, 0), lam
    )


def euler_deg_sequence(nmax: int, lam: Value = LAM) -> list[Value]:
    """Degenerate Euler numbers for n = 0..nmax."""
    return stirling2_table(nmax, lam).weighted_sums(
        [Fraction((-1) ** k * math.factorial(k), 2**k) for k in range(nmax + 1)]
    )


def bell_deg_sequence(nmax: int, x: Scalar = 1, lam: Value = LAM) -> list[Value]:
    """Degenerate Bell polynomial values at x for n = 0..nmax (x = 1 gives
    the degenerate Bell numbers)."""
    x = as_fraction(x, "bell_deg_sequence")
    return stirling2_table(nmax, lam).weighted_sums([x**k for k in range(nmax + 1)])


def _convolve_at(base: list[Value], x: Fraction, lam: Value) -> list[Value]:
    # sum_k C(n,k) (x)_{n-k,L} base[k], as a weighted sum over the triangle
    # C(n,m) base[n-m]: with x = p/q the falling factorial (x)_{m,L} is
    # prod_{j<m} (p - j q L) / q^m, nested as heads 1/q^m and factors p - j q L.
    p, q = x.numerator, x.denominator
    nmax = len(base) - 1
    pascal = StirlingTable(
        tuple(tuple(base[n - m] * math.comb(n, m) for m in range(n + 1)) for n in range(nmax + 1))
    )
    return pascal.nested_sums([Fraction(1, q**m) for m in range(nmax + 1)], (p, 0), (0, -q), lam)


def bernoulli_deg_poly_sequence(nmax: int, x: Scalar, lam: Value = LAM) -> list[Value]:
    """Degenerate Bernoulli polynomial values at a rational x, n = 0..nmax."""
    x = as_fraction(x, "bernoulli_deg_poly_sequence")
    return _convolve_at(bernoulli_deg_sequence(nmax, lam), x, lam)


def euler_deg_poly_sequence(nmax: int, x: Scalar, lam: Value = LAM) -> list[Value]:
    """Degenerate Euler polynomial values at a rational x, n = 0..nmax."""
    x = as_fraction(x, "euler_deg_poly_sequence")
    return _convolve_at(euler_deg_sequence(nmax, lam), x, lam)


# -- classical oracles, deliberately independent of everything above --------


def classical_bernoulli(nmax: int) -> list[Fraction]:
    """Bernoulli numbers (B_1 = -1/2) via the binomial recurrence."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    out = [Fraction(1)]
    for n in range(1, nmax + 1):
        s = sum(math.comb(n + 1, k) * out[k] for k in range(n))
        out.append(Fraction(-s, n + 1))
    return out


def classical_euler(nmax: int) -> list[Fraction]:
    """Euler polynomial values at 0, from the rational series of 2/(e^t + 1)."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    denom = [Fraction(1)] + [
        Fraction(1, 2 * math.factorial(k)) for k in range(1, nmax + 1)
    ]
    inv = [Fraction(1)]
    for n in range(1, nmax + 1):
        inv.append(-sum(denom[k] * inv[n - k] for k in range(1, n + 1)))
    return [inv[n] * math.factorial(n) for n in range(nmax + 1)]


def classical_bell(nmax: int) -> list[int]:
    """Bell numbers via the Bell triangle."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    out = [1]
    row = [1]
    for _ in range(nmax):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out
