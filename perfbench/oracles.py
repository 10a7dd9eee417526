"""Reference values over plain Fractions, independent of degenums.

Nothing here imports the package under test.  The degenerate values at a
rational L come from scalar runs of the kind-A/B table recurrence; the
classical Bernoulli numbers come from the binomial recurrence, a route the
program does not take.
"""

from __future__ import annotations

import math
from fractions import Fraction


def falling_binomial(n: int, lam: Fraction) -> Fraction:
    """C(n - lam, n) = (1 - lam)(2 - lam)...(n - lam) / n!."""
    p = Fraction(1)
    for j in range(1, n + 1):
        p *= j - lam
    return p / math.factorial(n)


def bernoulli_seed(count: int, lam: Fraction) -> list[Fraction]:
    return [falling_binomial(n, lam) / (n + 1) for n in range(count)]


def half_seed(count: int) -> list[Fraction]:
    return [Fraction(1, 2**n) for n in range(count)]


def bell_seed(count: int) -> list[Fraction]:
    return [Fraction(0)] + [Fraction((-1) ** n, math.factorial(n)) for n in range(1, count)]


SEEDS = {"bernoulli": bernoulli_seed, "half": lambda c, lam: half_seed(c),
         "bell": lambda c, lam: bell_seed(c)}


def table(kind: str, seed: list[Fraction], rows: int, lam: Fraction) -> list[list[Fraction]]:
    """Trapezoid of the kind-B (shift 0) or kind-A (shift 1) recurrence at L = lam:

        next(m) = (m + shift - (n - 1) lam) prev(m) - (m + 1) prev(m + 1)
    """
    shift = {"B": 0, "A": 1}[kind]
    out = [list(seed[: rows + 1])]
    for n in range(1, rows + 1):
        prev = out[-1]
        w = (n - 1) * lam
        out.append([(m + shift - w) * prev[m] - (m + 1) * prev[m + 1]
                    for m in range(len(prev) - 1)])
    return out


def degenerate_bernoulli(nmax: int, lam: Fraction) -> list[Fraction]:
    """Degenerate Bernoulli numbers at L = lam: column 0 of the kind-B table
    run on the Bernoulli seed."""
    return [row[0] for row in table("B", bernoulli_seed(nmax + 1, lam), nmax, lam)]


def classical_bernoulli(nmax: int) -> list[Fraction]:
    """B_0..B_nmax with B_1 = -1/2, by sum_{k<=n} C(n+1, k) B_k = 0."""
    out = [Fraction(1)]
    for n in range(1, nmax + 1):
        out.append(-sum(math.comb(n + 1, k) * out[k] for k in range(n)) / (n + 1))
    return out


def poly_at(coeffs: list[Fraction], lam: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * lam + c
    return acc


def render_rat(q: Fraction) -> str:
    """The canonical text of a rational: "p" or "p/q", sign on the numerator."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_poly(coeffs: list[Fraction]) -> str:
    """The canonical text of a polynomial in L, as the interchange format defines it."""
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            terms.append(render_rat(c) + ("" if i == 0 else "*L" if i == 1 else f"*L^{i}"))
    return " + ".join(terms) or "0"
