"""Exact scalars and polynomials in the degeneracy parameter.

Scalars are arbitrary-precision rationals (``fractions.Fraction``).
``LambdaPoly`` is a dense univariate polynomial in the degeneracy parameter
L over the rationals; it is the value type for every quantity in this
package, since all of them are polynomials in L.

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
from itertools import zip_longest
from typing import Iterable

__all__ = [
    "LambdaPoly",
    "ZERO",
    "ONE",
    "LAM",
    "format_rat",
    "as_fraction",
    "parse_rat",
    "check_lam",
    "ring_one",
    "times_linear_add",
    "linear_products",
    "classical_falling",
]

Scalar = int | Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")
_TERM_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?(?:\*L(?:\^(\d+))?)?$")


def format_rat(q: Fraction) -> str:
    """Render a rational as "p" or "p/q" with the sign on the numerator."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_fraction(x: Scalar, who: str) -> Fraction:
    """x as a Fraction for an int or a Fraction; anything else raises
    TypeError naming ``who``, since Fraction(0.1) is a binary rational, not
    1/10."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"{who} takes an int or a Fraction, not {type(x).__name__}")
    return Fraction(x)


def parse_rat(text: str) -> Fraction:
    """Parse "p", "-p" or "p/q".  Decimal notation is rejected: exactness only."""
    s = text.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"not an exact rational (use p or p/q): {text!r}")
    return Fraction(s)


class LambdaPoly:
    """Immutable dense polynomial in L with exact rational coefficients."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        fracs = []
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                if isinstance(c, float):
                    raise TypeError("float coefficients are not exact; use Fraction or int")
                c = Fraction(c)
            fracs.append(c)
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        p = LambdaPoly._raw([f.numerator * (den // f.denominator) for f in fracs], den)
        object.__setattr__(self, "_num", p._num)
        object.__setattr__(self, "_den", p._den)

    @classmethod
    def _raw(cls, nums: list[int], den: int) -> "LambdaPoly":
        # den > 0 required; strips trailing zeros and reduces.
        while nums and nums[-1] == 0:
            nums.pop()
        if not nums:
            den = 1
        g = math.gcd(den, *nums)
        p = object.__new__(cls)
        object.__setattr__(p, "_num", tuple(nums) if g == 1 else tuple(n // g for n in nums))
        object.__setattr__(p, "_den", den // g)
        return p

    @classmethod
    def constant(cls, value: Scalar) -> "LambdaPoly":
        return cls((value,))

    @classmethod
    def sum_of_products(
        cls, pairs: Iterable[tuple["LambdaPoly", "LambdaPoly | Scalar"]]
    ) -> "LambdaPoly":
        """sum x y over pairs (x, y) of a polynomial x and a polynomial or
        rational y.  Every product is convolved into one integer vector over
        a running common denominator, the lcm of the pair denominators, and
        the sum is normalised once."""
        acc: list[int] = []
        den = 1
        for x, y in pairs:
            if isinstance(y, LambdaPoly):
                b, d = y._num, x._den * y._den
            elif isinstance(y, (int, Fraction)):
                b, d = ((y.numerator,) if y else ()), x._den * y.denominator
            else:
                raise TypeError(f"cannot multiply a LambdaPoly by {type(y).__name__}")
            a = x._num
            if not (a and b):
                continue
            grow = d // math.gcd(den, d)
            if grow != 1:
                acc = [c * grow for c in acc]
                den *= grow
            m = den // d
            if len(a) > len(b):  # loop over the shorter factor outside
                a, b = b, a
            acc.extend([0] * (len(a) + len(b) - 1 - len(acc)))
            for i, u in enumerate(a):
                if u:
                    u *= m
                    for j, v in enumerate(b, i):
                        acc[j] += u * v
        return cls._raw(acc, den)

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
        """Coefficient of L^i (zero beyond the degree); a negative i raises."""
        if i < 0:
            raise IndexError(f"power {i} of L is negative")
        return Fraction(self._num[i], self._den) if i < len(self._num) else Fraction(0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: object) -> "LambdaPoly | None":
        if isinstance(other, LambdaPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LambdaPoly.constant(other)
        return None

    def _plus(self, q: "LambdaPoly", sign: int) -> "LambdaPoly":
        """self + sign q for sign = 1 or -1, in one pass over both integer
        vectors on their common denominator, the sign folded into q's
        cofactor."""
        da, db = self._den, q._den
        g = math.gcd(da, db)
        ma, mb = db // g, da // g * sign
        nums = [u * ma + v * mb for u, v in zip_longest(self._num, q._num, fillvalue=0)]
        return LambdaPoly._raw(nums, da * ma)

    def __add__(self, other: object) -> "LambdaPoly":
        q = self._coerce(other)
        return NotImplemented if q is None else self._plus(q, 1)

    __radd__ = __add__

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly._raw([-n for n in self._num], self._den)

    def __sub__(self, other: object) -> "LambdaPoly":
        q = self._coerce(other)
        return NotImplemented if q is None else self._plus(q, -1)

    def __rsub__(self, other: object) -> "LambdaPoly":
        q = self._coerce(other)
        return NotImplemented if q is None else q._plus(self, -1)

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
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"scale takes an int or a Fraction, not {type(q).__name__}")
        if q == 0 or not self._num:
            return ZERO
        return LambdaPoly._raw(
            [n * q.numerator for n in self._num], self._den * q.denominator
        )

    def mul_linear_add(self, a: int, b: int, y: "LambdaPoly", c: Scalar) -> "LambdaPoly":
        """self * (a + b L) + c y for integers a and b and a rational c, in
        one pass over both integer vectors on their common denominator:
        coefficient i is mx (a num[i] + b num[i-1]) + my y.num[i]."""
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"mul_linear_add takes an int or a Fraction, not {type(c).__name__}")
        p, q = c.numerator, c.denominator
        dx, dy = self._den, y._den * q
        g = math.gcd(dx, dy)
        mx, my = dy // g, dx // g * p
        a, b, x = a * mx, b * mx, self._num
        nums = [
            a * u + b * v + my * w
            for u, v, w in zip_longest(x + (0,), (0,) + x, y._num, fillvalue=0)
        ]
        return LambdaPoly._raw(nums, dx * mx)

    def eval_at(self, q: Scalar) -> Fraction:
        """Substitute a rational value for L (Horner over the integers: with
        q = a/b and degree d, the numerator is sum_i num[i] a^i b^(d-i))."""
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"eval_at takes an int or a Fraction, not {type(q).__name__}")
        if not self._num:
            return Fraction(0)
        a, b = q.numerator, q.denominator
        acc, bpow = 0, 1
        for n in reversed(self._num):
            acc = acc * a + n * bpow
            bpow *= b
        return Fraction(acc, self._den * (bpow // b))

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
        den = self._den
        terms = []
        for i, n in enumerate(self._num):
            if n == 0:
                continue
            if den == 1:
                t = str(n)
            else:
                g = math.gcd(n, den)
                t = str(n // g) if g == den else f"{n // g}/{den // g}"
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

# The recurrences of this package run over two rings: polynomials in L (the
# value of L passed as ``lam`` is LAM) and the rationals (``lam`` is the
# Fraction at which L is evaluated).  ``Value`` is an element of either.
# Both share +, - and *, and multiplying by an int or a Fraction is scaling
# in either.  ``check_lam`` and ``ring_one`` below name the ring that ``lam``
# picks, and more places branch on it by ``lam is LAM``: ``times_linear_add``
# (its kernels), the Stirling rows and weighted sums of ``numbers`` (integers
# at a rational), ``SequenceSpec.values`` (custom entries evaluated at a
# rational) and ``build_table`` (only runs over L are kept).
Value = LambdaPoly | Scalar


def check_lam(lam: Value, who: str) -> None:
    """Raise TypeError naming ``who`` unless lam is LAM itself or an int or a
    Fraction: the recurrences pick the ring by ``lam is LAM``, so no other
    LambdaPoly (not even one equal to LAM) is a value of L; and as 0.5 ==
    Fraction(1, 2) with equal hashes, rows kept for a float would be served
    to the exact lane."""
    if lam is not LAM and not isinstance(lam, (int, Fraction)):
        name = "a LambdaPoly other than LAM" if isinstance(lam, LambdaPoly) else type(lam).__name__
        raise TypeError(f"{who} takes LAM (polynomials in L), an int or a Fraction, not {name}")


def ring_one(lam: Value) -> Value:
    """The 1 of the ring that lam picks: ONE for LAM, Fraction(1) at a
    rational, so that every value of the rational lane is a Fraction."""
    check_lam(lam, "ring_one")
    return ONE if lam is LAM else Fraction(1)


def times_linear_add(x: Value, a: int, b: int, y: Value, c: Scalar, lam: Value) -> Value:
    """x * (a + b lam) + c y for integers a and b and a rational c: by
    ``LambdaPoly.mul_linear_add`` when lam is LAM itself, in plain ints when
    x, y, c and lam are ints, else at lam = p/q as one Fraction reduced once:
    with g = gcd(xd, yd), xn (aq + bp) (yd/g) cd + cn q yn (xd/g) over q xd (yd/g) cd."""
    if lam is LAM:
        return x.mul_linear_add(a, b, y, c)
    if int is type(lam) is type(x) is type(y) is type(c):
        return x * (a + b * lam) + c * y
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"times_linear_add takes an int or a Fraction, not {type(c).__name__}")
    check_lam(lam, "times_linear_add")
    p, q, xd, yd, cd = lam.numerator, lam.denominator, x.denominator, y.denominator, c.denominator
    g = math.gcd(xd, yd)
    yd //= g
    return Fraction(
        x.numerator * (a * q + b * p) * yd * cd + c.numerator * q * y.numerator * (xd // g),
        q * xd * yd * cd,
    )


def linear_products(a: Value, c: Value, n: int) -> list[Value]:
    """[prod_{j<m} (a + j c) for m = 0..n], the running products of linear
    factors in L: a = x, c = -L gives the degenerate falling factorials
    (x)_{m,L}, and a = 1 - L, c = 1 gives (1-L)(2-L)...(m-L) = m! C(m-L, m).
    With a rational lam in place of L the products are rationals."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = [(a + c) * 0 + 1]  # the 1 of the ring of a and c
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
