"""`leading()` and `==` against a scalar, in both rings.

`leading()` returns the graded-lex largest monomial with its coefficient in
the ring's scalar type (`GaussianRational` for CPoly, `Fraction` for RPoly)
and refuses the zero polynomial.  A polynomial equals a scalar exactly when
it is that constant; an int, a Fraction and a Gaussian rational are scalars,
anything else is not equal.  A Gaussian rational that is not real is never
equal to an RPoly.
"""

from fractions import Fraction

import pytest

from holomult.poly import CPoly, RPoly
from holomult.scalars import GaussianRational

RINGS = [CPoly, RPoly]


def test_leading_term_with_a_gaussian_coefficient():
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    p = z2 * z2 * GaussianRational(Fraction(1, 3), -2) + z1 * z2.scale(5) + z1 - 7
    mono, coeff = p.leading()
    # z1 z2 and z2^2 share degree 2; graded lex puts z1 first
    assert mono == (1, 1) and coeff == 5
    mono, coeff = (p - z1 * z2.scale(5)).leading()
    assert mono == (0, 2)
    assert type(coeff) is GaussianRational and coeff == GaussianRational(Fraction(1, 3), -2)


def test_leading_term_of_a_real_polynomial():
    x1, y1 = RPoly.var(2, 1), RPoly.var(2, 2)
    # a real Gaussian rational is accepted as a coefficient and read back as a Fraction
    p = RPoly(2, {(0, 3): GaussianRational(Fraction(-3, 4)), (2, 0): 1}) + x1 - y1
    mono, coeff = p.leading()
    assert mono == (0, 3)
    assert type(coeff) is Fraction and coeff == Fraction(-3, 4)


@pytest.mark.parametrize("ring", RINGS)
def test_leading_term_of_zero_raises(ring):
    with pytest.raises(ValueError, match="^zero polynomial has no leading term$"):
        ring.zero(3).leading()


@pytest.mark.parametrize("ring", RINGS)
def test_a_constant_equals_its_scalar(ring):
    assert ring.const(2, 3) == 3 and 3 == ring.const(2, 3)
    assert ring.zero(2) == 0
    half = ring.const(2, Fraction(5, 2))
    assert half == Fraction(5, 2) and half == GaussianRational(Fraction(5, 2))
    assert half != 2 and half != Fraction(5, 3)
    # a polynomial that is not constant equals no scalar
    assert ring.var(2, 1) != 0 and ring.var(2, 1) != 1


def test_a_gaussian_constant_equals_its_scalar():
    p = CPoly.const(3, GaussianRational(1, -2))
    assert p == GaussianRational(1, -2) and GaussianRational(1, -2) == p
    assert p != 1 and p != GaussianRational(1, 2)


def test_a_non_real_scalar_never_equals_a_real_polynomial():
    i = GaussianRational(0, 1)
    assert (RPoly.const(2, 1) == i) is False
    assert (i == RPoly.zero(2)) is False
    assert RPoly.var(2, 1) != i


@pytest.mark.parametrize("ring", RINGS)
def test_a_string_is_not_equal(ring):
    assert (ring.var(1, 1) == "x") is False
    assert ring.var(1, 1) != "x1" and ring.const(1, 1) != "1"
