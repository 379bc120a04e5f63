"""A Gaussian rational combines with a polynomial from either side.

`GaussianRational`'s `+`, `-` and `*` take a Gaussian rational, an int or a
Fraction and return NotImplemented for anything else, so a polynomial's
reflected operation answers: `GaussianRational(0, 1) + z1` is `z1 + i`, as
`1 + z1` is `z1 + 1`.  Floats and strings still raise TypeError.
"""

from fractions import Fraction

import pytest

from holomult.poly import CPoly, RPoly
from holomult.scalars import GaussianRational

I = GaussianRational(0, 1)


def test_gaussian_rational_meets_a_polynomial_from_the_left():
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    p = z1 * z2 - 3
    assert I + z1 == z1 + I == CPoly(2, {(1, 0): 1, (0, 0): I})
    assert I - z1 == -(z1 - I)
    assert I * p == p * I == p.scale(I)
    assert type(I + z1) is CPoly and type(I - z1) is CPoly and type(I * p) is CPoly
    # a real Gaussian rational meets the real ring as a Fraction does
    x1 = RPoly.var(2, 1)
    half = GaussianRational(Fraction(1, 2))
    assert half + x1 == x1 + Fraction(1, 2)
    assert half * x1 == x1.scale(Fraction(1, 2))
    assert type(half - x1) is RPoly
    with pytest.raises(ValueError, match="^RPoly coefficients must be real$"):
        I + x1


def test_exact_scalars_still_combine():
    g = GaussianRational(2, -1)
    assert g + 1 == 1 + g == GaussianRational(3, -1)
    assert g - Fraction(1, 2) == GaussianRational(Fraction(3, 2), -1)
    assert 2 - g == GaussianRational(0, 1)
    assert g * 3 == 3 * g == GaussianRational(6, -3)
    assert g * True == g


@pytest.mark.parametrize("other", [1.5, "1", complex(1, 2)])
def test_inexact_operands_still_raise_type_error(other):
    g = GaussianRational(1, 1)
    for op in (lambda: g + other, lambda: other + g, lambda: g - other, lambda: other - g,
               lambda: g * other, lambda: other * g):
        with pytest.raises(TypeError):
            op()
