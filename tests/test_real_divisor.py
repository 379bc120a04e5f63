"""Division of Gaussian rationals by a real divisor.

`GaussianRational.__truediv__` divides each part by a divisor with no
imaginary part, skipping the norm and the cross products.  Its quotient is
compared with the general formula (a + bi)/(c + di) =
((ac + bd) + (bc - ad)i) / (c^2 + d^2) over seeded Gaussian rationals with
zero, negative and non-real parts; a zero divisor still raises
ZeroDivisionError.
"""

import random
from fractions import Fraction

import pytest

from holomult.scalars import GaussianRational


def general(x, y):
    a, b, c, d = x.re, x.im, y.re, y.im
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def draw(rng):
    def part():
        return Fraction(rng.choice([0, 0, rng.randint(-20, 20)]), rng.randint(1, 9))

    return GaussianRational(part(), part())


def test_every_quotient_matches_the_general_formula():
    rng = random.Random(20261022)
    reals = 0
    for _ in range(2000):
        x, y = draw(rng), draw(rng)
        if not y:
            continue
        reals += y.im == 0
        q = x / y
        assert (q.re, q.im) == general(x, y)
        assert type(q.re) is Fraction and type(q.im) is Fraction
    assert reals > 200


@pytest.mark.parametrize("divisor", [Fraction(-3, 4), 5, -1, GaussianRational(Fraction(7, 2))])
def test_scalar_divisors_divide_each_part(divisor):
    x = GaussianRational(Fraction(2, 3), -5)
    q = x / divisor
    c = Fraction(divisor.re if isinstance(divisor, GaussianRational) else divisor)
    assert (q.re, q.im) == (x.re / c, x.im / c)


@pytest.mark.parametrize("zero", [0, Fraction(0), GaussianRational(0), GaussianRational(0, 0)])
def test_a_zero_divisor_raises(zero):
    for x in (GaussianRational(1), GaussianRational(0, 2), GaussianRational(0)):
        with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
            x / zero
