"""Exact scalars and polynomials in the degeneracy parameter.

Scalars are arbitrary-precision rationals (``fractions.Fraction``, aliased
``Rat``).  ``LambdaPoly`` is a dense univariate polynomial in the degeneracy
parameter L over the rationals; it is the value type for every quantity in
this package, since all of them are polynomials in L.

Internally a polynomial stores an integer coefficient vector over a single
positive denominator, which keeps convolution and accumulation in plain
integer arithmetic; the visible coefficients are always reduced Fractions.
Canonical form: the last stored coefficient is nonzero, the gcd of all
stored integers (denominator included) is 1, and the zero polynomial is the
empty vector over denominator 1.

The text rendering is the bit-exact interchange format used by every output
path: ascending powers joined by " + ", each term "a/b" (degree 0),
"a/b*L" (degree 1) or "a/b*L^k" (degree k >= 2), the sign inside the
numerator, "/1" omitted, and "0" for the zero polynomial.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable

__all__ = [
    "Rat",
    "LambdaPoly",
    "ZERO",
    "ONE",
    "LAM",
    "format_rat",
    "parse_rat",
    "linear_products",
    "classical_falling",
]

Rat = Fraction

Scalar = int | Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")
_TERM_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?(?:\*L(?:\^(\d+))?)?$")


def format_rat(q: Fraction) -> str:
    """Render a rational as "p" or "p/q" with the sign on the numerator."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rat(text: str) -> Fraction:
    """Parse "p", "-p" or "p/q".  Decimal notation is rejected: exactness only."""
    s = text.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"not an exact rational (use p or p/q): {text!r}")
    return Fraction(s)


def _gcd_all(nums: Iterable[int], den: int) -> int:
    g = den
    for n in nums:
        g = math.gcd(g, n)
        if g == 1:
            return 1
    return g


class LambdaPoly:
    """Immutable dense polynomial in L with exact rational coefficients."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        fracs = []
        for c in coeffs:
            if isinstance(c, float):
                raise TypeError("float coefficients are not exact; use Fraction or int")
            fracs.append(Fraction(c))
        while fracs and fracs[-1] == 0:
            fracs.pop()
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        nums = [int(f * den) for f in fracs]
        g = _gcd_all(nums, den)
        object.__setattr__(self, "_num", tuple(n // g for n in nums))
        object.__setattr__(self, "_den", den // g)

    @classmethod
    def _raw(cls, nums: list[int], den: int) -> "LambdaPoly":
        # den > 0 required; strips trailing zeros and reduces.
        while nums and nums[-1] == 0:
            nums.pop()
        if not nums:
            den = 1
        g = _gcd_all(nums, den)
        p = object.__new__(cls)
        object.__setattr__(p, "_num", tuple(n // g for n in nums))
        object.__setattr__(p, "_den", den // g)
        return p

    @classmethod
    def constant(cls, value: Scalar) -> "LambdaPoly":
        return cls((value,))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in ascending powers of L, canonical form."""
        return tuple(Fraction(n, self._den) for n in self._num)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coeff(self, i: int) -> Fraction:
        """Coefficient of L^i (zero beyond the degree)."""
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: object) -> "LambdaPoly | None":
        if isinstance(other, LambdaPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LambdaPoly.constant(other)
        return None

    def __add__(self, other: object) -> "LambdaPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        da, db = self._den, q._den
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        den = da * ma
        a, b = self._num, q._num
        n = max(len(a), len(b))
        nums = [
            (a[i] * ma if i < len(a) else 0) + (b[i] * mb if i < len(b) else 0)
            for i in range(n)
        ]
        return LambdaPoly._raw(nums, den)

    __radd__ = __add__

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly._raw([-n for n in self._num], self._den)

    def __sub__(self, other: object) -> "LambdaPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other: object) -> "LambdaPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other: object) -> "LambdaPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return ZERO
        nums = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    nums[i + j] += u * v
        return LambdaPoly._raw(nums, self._den * other._den)

    __rmul__ = __mul__

    def scale(self, q: Scalar) -> "LambdaPoly":
        """Multiply by a rational scalar."""
        q = Fraction(q)
        if q == 0 or not self._num:
            return ZERO
        return LambdaPoly._raw(
            [n * q.numerator for n in self._num], self._den * q.denominator
        )

    def eval_at(self, q: Scalar) -> Fraction:
        """Substitute a rational value for L (Horner)."""
        q = Fraction(q)
        acc = Fraction(0)
        for n in reversed(self._num):
            acc = acc * q + n
        return acc / self._den

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    # -- text form ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text form; ``LambdaPoly.parse`` is its exact inverse."""
        if not self._num:
            return "0"
        terms = []
        for i, n in enumerate(self._num):
            if n == 0:
                continue
            t = format_rat(Fraction(n, self._den))
            if i == 1:
                t += "*L"
            elif i >= 2:
                t += f"*L^{i}"
            terms.append(t)
        return " + ".join(terms)

    @classmethod
    def parse(cls, text: str) -> "LambdaPoly":
        """Parse the canonical rendering back into a polynomial; any other
        spelling of the same polynomial is rejected."""
        s = text.strip()
        if s == "0":
            return ZERO
        seen: dict[int, Fraction] = {}
        for term in s.split(" + "):
            m = _TERM_RE.match(term)
            if not m:
                raise ValueError(f"malformed polynomial term: {term!r}")
            num, den, power = m.groups()
            c = Fraction(int(num), int(den) if den else 1)
            if c == 0:
                raise ValueError(f"zero coefficient term in {text!r}")
            seen[int(power or 1) if "*L" in term else 0] = c
        coeffs = [Fraction(0)] * (max(seen) + 1)
        for k, c in seen.items():
            coeffs[k] = c
        p = cls(coeffs)
        if p.render() != s:
            raise ValueError(f"not in canonical form: {text!r}")
        return p

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LambdaPoly({self.render()!r})"


ZERO = LambdaPoly()
ONE = LambdaPoly((1,))
LAM = LambdaPoly((0, 1))


def linear_products(a: LambdaPoly | Scalar, c: LambdaPoly | Scalar, n: int) -> list[LambdaPoly]:
    """[prod_{j<m} (a + j c) for m = 0..n], the running products of linear
    factors in L: a = x, c = -L gives the degenerate falling factorials
    (x)_{m,L}, and a = 1 - L, c = 1 gives (1-L)(2-L)...(m-L) = m! C(m-L, m)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = [ONE]
    for j in range(n):
        out.append(out[-1] * (a + c * j))
    return out


def classical_falling(p: LambdaPoly, n: int) -> LambdaPoly:
    """Classical falling factorial p(p - 1)...(p - n + 1) of a polynomial."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = ONE
    for j in range(n):
        q = q * (p - j)
    return q
