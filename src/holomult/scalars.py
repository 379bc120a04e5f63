"""Gaussian-rational scalars: complex numbers a + b*i with a, b exact rationals.

All coefficient arithmetic in the package runs over this field, so every
polynomial identity is decided exactly (no floating point anywhere except in
the numeric cross-check layer).
"""

from __future__ import annotations

import math
from fractions import Fraction


class GaussianRational:
    """An element of Q(i), stored as exact real and imaginary Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("Gaussian rationals take exact parts, not floats")
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- constructors ------------------------------------------------------

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        out = _exact(value)
        if out is None:
            raise TypeError(f"cannot coerce {value!r} to a Gaussian rational")
        return out

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _exact(other)
            if other is None:
                return NotImplemented
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _exact(other)
            if other is None:
                return NotImplemented
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if type(other) is int:  # exponents in diff; bool is not an int here
                return _make(self.re * other, self.im * other)
            other = _exact(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if b or d:
            return _make(a * c - b * d, a * d + b * c)
        return _make(a * c, b)  # both real: skip three products of zeros

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:  # a real divisor divides each part: skip the norm and the cross products
            if not c:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _make(a / c, b / c)
        norm = c * c + d * d
        return _make((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return GaussianRational(1) / self ** (-exponent)
        out = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return _make(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _exact(other)
            if other is None:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        # Fraction's own repr, with numerator and denominator past str()'s digit limit too
        re, im = (f"Fraction({rational_text(q.numerator)}, {rational_text(q.denominator)})"
                  for q in (self.re, self.im))
        return f"GaussianRational({re}, {im})"

    def __str__(self):
        if self.im == 0:
            return rational_text(self.re)
        if self.re == 0:
            return f"{rational_text(self.im)}*i" if self.im != 1 else "i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imtxt = "i" if mag == 1 else f"{rational_text(mag)}*i"
        return f"{rational_text(self.re)}{sign}{imtxt}"


def _exact(value):
    """value as a GaussianRational if it is one, an int or a Fraction, else None: the
    one operand check, so `coerce` raises and +, -, * and == return NotImplemented
    for any other type (a polynomial answers)."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


def rational_text(q) -> str:
    """str() of a Fraction or int, also past the interpreter's digit limit.

    `str()` refuses an integer longer than `sys.get_int_max_str_digits()`;
    `decimal.Decimal` converts it without that limit, which stays untouched.
    """
    try:
        return str(q)
    except ValueError:
        from decimal import Decimal  # only for numbers longer than the limit

        q = Fraction(q)
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


_new = object.__new__


def _make(re: Fraction, im: Fraction) -> GaussianRational:
    """A Gaussian rational from two parts that are already Fractions.

    Internal: the arithmetic above only ever combines Fractions into
    Fractions, so it skips the float check and the Fraction(...) coercion of
    the public constructor.
    """
    out = _new(GaussianRational)
    out.re = re
    out.im = im
    return out


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def sqrt_fraction(q: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def sqrt_gaussian(q: GaussianRational):
    """Exact square root of a Gaussian rational within Q(i), or None.

    Solving (u + v*i)^2 = a + b*i needs u^2 + v^2 = sqrt(a^2 + b^2) rational
    and both u^2 = (a + N)/2, v^2 = (N - a)/2 to be rational squares.
    """
    a, b = q.re, q.im
    n = sqrt_fraction(a * a + b * b)
    if n is None:
        return None
    u2 = (a + n) / 2
    v2 = (n - a) / 2
    u = sqrt_fraction(u2)
    v = sqrt_fraction(v2)
    if u is None or v is None:
        return None
    # fix relative sign so that 2uv == b
    if 2 * u * v != b:
        v = -v
    if 2 * u * v != b:
        return None
    root = GaussianRational(u, v)
    return canonical_sign(root)


def canonical_sign(q: GaussianRational) -> GaussianRational:
    """Pick the representative of {q, -q} whose first nonzero part is positive."""
    if q.re != 0:
        return q if q.re > 0 else -q
    return q if q.im >= 0 else -q
