"""Degenerate special number families, exact in the degeneracy parameter.

Degenerate Stirling numbers of both kinds, degenerate Bernoulli, Euler and
Bell numbers and their polynomial values at a rational argument, all as
polynomials in L.  Evaluating at L = 0 recovers the classical numbers; the
classical oracles at the bottom of this module compute those independently
(plain Fractions and integers, none of the L machinery) so the limits can
be cross-checked.

Both Stirling triangles come from one row recurrence, whose rows at a
rational L = p/q hold the integers q^(n-k) S(n, k).  The Bernoulli, Euler
and Bell numbers are closed weighted sums over the second-kind triangle; the
polynomial values at x come from the binomial convolution with degenerate
falling factorials of x.  The Bernoulli weights and the falling factorials
are products of linear factors in L, so over polynomials in L those sums run
by Horner's rule (``StirlingTable.nested_row``).  Each family's sum is one
function of a row in both rings, built once by ``row_sums``: the Bernoulli,
Euler and Bell sequences map it over the triangle's rows, and the CLI over
rows streamed from ``triangle_rows``, none kept.  At a rational L every one
of these sums is an integer row against integer weights, one dot product
per row reduced once (``_dots``).  Each family takes L as ``lam``: LAM (the
default) gives polynomials in L, a Fraction the same numbers at that value.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import chain, count, repeat

from .exact import (
    LAM, ONE, Scalar, Value, as_fraction, check_lam, linear_products, ring_one, times_linear_add,
)
from .series import StirlingTable, _store

__all__ = [
    "StirlingTable",
    "stirling2_table",
    "stirling1_table",
    "triangle_rows",
    "row_sums",
    "bernoulli_deg_sequence",
    "euler_deg_sequence",
    "bell_deg_sequence",
    "bernoulli_deg_poly_sequence",
    "euler_deg_poly_sequence",
    "classical_bernoulli",
    "classical_euler",
    "classical_bell",
]


# The rows of each second-kind triangle built in the identity suite (integers
# at a rational L), keyed by the value of L, so that the suite builds each row
# once however many families read it (series._store).
_stirling2_rows: dict[Value, list[tuple]] = {}


def _stirling_steps(prev: tuple, nmax: int, lam: Value, first: bool) -> Iterator[tuple]:
    # Rows len(prev)..nmax of the second (or first) kind's triangle, each from
    # the one before, prev being row len(prev) - 1: entry (n, k) has degree
    # n - k in L and integer coefficients, so at L = p/q the rows hold the
    # integers q^(n-k) S(n, k), and the factor k - nL (or kL - n) of each cell
    # becomes kq - np (or kp - nq); over L, p is LAM and q is 1.
    p, q = (LAM, 1) if lam is LAM else (lam.numerator, lam.denominator)
    zero, ones, ps = prev[0] * 0, repeat(1), repeat(p)
    for n in range(len(prev) - 1, nmax):
        a, b = (repeat(-n * q), count()) if first else (count(0, q), repeat(-n))
        prev = (*map(times_linear_add, prev, a, b, (zero,) + prev, ones, ps), prev[n])
        yield prev


def _stirling_rows(nmax: int, lam: Value, first: bool = False) -> list[tuple]:
    # Rows 0..nmax of the second (or first) kind's triangle, at a rational L
    # as integers (see _stirling_steps).
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    one = ring_one(lam)
    store = {} if first else _store(_stirling2_rows)
    rows = list(store.get(lam, [(one if lam is LAM else 1,)]))
    rows += _stirling_steps(rows[-1], nmax, lam, first)
    store[lam] = rows
    return rows[: nmax + 1]


def _table(rows: list[tuple], lam: Value) -> StirlingTable:
    # The table of S(n, k) = rows[n][k] / q^(n-k), each rational cell reduced once.
    if lam is not LAM:
        qs = [lam.denominator**j for j in range(len(rows))]
        rows = [tuple(map(Fraction, row, qs[n::-1])) for n, row in enumerate(rows)]
    return StirlingTable(tuple(rows))


def _dots(weights: list, dens: list[int]) -> Callable[[tuple], Fraction]:
    # integer row n (n + 1 entries) -> sum_k row[k] weights[k] / dens[n]: one
    # integer dot product over the weights' common denominator d, reduced once
    # into a Fraction by d dens[n].  Every weighted sum at a rational L is this.
    d = math.lcm(*(w.denominator for w in weights))
    ws = [w.numerator * (d // w.denominator) for w in weights]
    ds = [d * den for den in dens]
    return lambda row: Fraction(sum(map(operator.mul, row, ws)), ds[len(row) - 1])


def row_sums(family: str, nmax: int, lam: Value = LAM, x: Scalar = 1) -> Callable[[tuple], Value]:
    """The function that takes row n <= nmax of the second-kind triangle to
    entry n of the ``family`` sequence ("bernoulli", "euler" or "bell", the
    Bell polynomial at x), its weights built once.  Over L (lam = LAM) it
    takes row n of ``triangle_rows``, by Horner's rule for the nested
    Bernoulli weights (``StirlingTable.nested_row``) and as one sum of
    products for the others (``StirlingTable.weighted_row``).  At L = p/q it
    takes the integer row q^(n-k) S(n, k): weight k times q^k is head k
    times the integer prod_{j<k} q f_j, so the row is one integer dot
    product over d q^n (``_dots``)."""
    check_lam(lam, "row_sums")
    x = as_fraction(x, "row_sums")
    head = {
        "bernoulli": lambda k: Fraction((-1) ** k, k + 1),
        "euler": lambda k: Fraction((-1) ** k * math.factorial(k), 2**k),
        "bell": lambda k: x**k,
    }[family]
    heads = list(map(head, range(nmax + 1)))
    nested = ((1, -1), (1, 0)) if family == "bernoulli" else ()
    if lam is LAM:
        return StirlingTable.nested_row(heads, *nested) if nested else StirlingTable.weighted_row(heads)
    ((a, b), (da, db)), p, q = nested or ((1, 0), (0, 0)), lam.numerator, lam.denominator
    ws = map(operator.mul, heads, linear_products(a * q + b * p, da * q + db * p, nmax))
    return _dots(list(ws), [q**n for n in range(nmax + 1)])


def triangle_rows(nmax: int, first: bool = False) -> Iterator[tuple]:
    """Rows 0..nmax of ``stirling2_table(nmax)`` (``stirling1_table(nmax)``
    with ``first``), polynomials in L, one at a time: each row is built from
    the one before only when it is asked for, and none is kept."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    row = (ONE,)
    return chain((row,), _stirling_steps(row, nmax, LAM, first))


def stirling2_table(nmax: int, lam: Value = LAM) -> StirlingTable:
    """Degenerate Stirling numbers of the second kind by the row recurrence

        next(k) = prev(k-1) + (k - n L) prev(k),

    as polynomials in L (lam = LAM) or as rationals at L = lam.
    """
    return _table(_stirling_rows(nmax, lam), lam)


def stirling1_table(nmax: int, lam: Value = LAM) -> StirlingTable:
    """Degenerate Stirling numbers of the first kind, n! [t^n] log_L(1+t)^k / k!,
    by the row recurrence

        next(k) = prev(k-1) + (k L - n) prev(k),

    as polynomials in L (lam = LAM) or as rationals at L = lam.  No rows are
    kept.
    """
    return _table(_stirling_rows(nmax, lam, first=True), lam)


def bernoulli_deg_sequence(nmax: int, lam: Value = LAM) -> list[Value]:
    """Degenerate Bernoulli numbers for n = 0..nmax: weight k is
    (-1)^k (1-L)(2-L)...(k-L) / (k+1), nested as heads (-1)^k/(k+1) and
    factors (k+1) - L."""
    rows = _stirling_rows(nmax, lam)
    return list(map(row_sums("bernoulli", nmax, lam), rows))


def euler_deg_sequence(nmax: int, lam: Value = LAM) -> list[Value]:
    """Degenerate Euler numbers for n = 0..nmax."""
    rows = _stirling_rows(nmax, lam)
    return list(map(row_sums("euler", nmax, lam), rows))


def bell_deg_sequence(nmax: int, x: Scalar = 1, lam: Value = LAM) -> list[Value]:
    """Degenerate Bell polynomial values at x for n = 0..nmax (x = 1 gives
    the degenerate Bell numbers)."""
    x, rows = as_fraction(x, "bell_deg_sequence"), _stirling_rows(nmax, lam)
    return list(map(row_sums("bell", nmax, lam, x), rows))


def _convolve_at(base: list[Value], x: Fraction, lam: Value) -> list[Value]:
    # sum_m C(n,m) (x)_{m,L} base[n-m].  Over L: the nested row function mapped
    # over the rows C(n,m) base[n-m], each built when it is asked for; with
    # x = p/q the falling factorial (x)_{m,L} is prod_{j<m} (p - j q L) / q^m,
    # nested as heads 1/q^m and factors p - j q L.
    # At L = r/s: (x)_{m,L} = P_m / (qs)^m with the integers P_m =
    # prod_{j<m} (ps - jqr), and base[k] = V_k / (d (qs)^k) with integers V_k
    # and d the least such, so row n is the integers C(n,m) V_{n-m} over d (qs)^n.
    p, q = x.numerator, x.denominator
    nmax = len(base) - 1
    if lam is LAM:
        nested = StirlingTable.nested_row([Fraction(1, q**m) for m in range(nmax + 1)], (p, 0), (0, -q))
        rows = (tuple(base[n - m] * math.comb(n, m) for m in range(n + 1)) for n in range(nmax + 1))
        return list(map(nested, rows))
    r, s = lam.numerator, lam.denominator
    qs = [(q * s) ** k for k in range(nmax + 1)]
    d = math.lcm(*(b.denominator // math.gcd(b.denominator, t) for b, t in zip(base, qs)))
    vs = [b.numerator * (d * t // b.denominator) for b, t in zip(base, qs)]
    rows = (tuple(math.comb(n, m) * vs[n - m] for m in range(n + 1)) for n in range(nmax + 1))
    return list(map(_dots(linear_products(p * s, -q * r, nmax), [d * t for t in qs]), rows))


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
