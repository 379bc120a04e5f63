"""Each polynomial of a float batch gets the value it has alone.

`float_evaluator` sums every polynomial of a batch over the union of their
monomials, so a monomial that overflows to inf meets the other polynomials'
zero coefficients, and inf * 0 is nan.  Such a batch must still give each
polynomial the value it has when compiled alone; finite batches are not
touched.
"""

import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from holomult.poly import CPoly, RPoly, float_evaluator
from holomult.scalars import GaussianRational


@pytest.fixture(autouse=True)
def quiet_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def alone(polys, points):
    return np.stack([float_evaluator([p])(points)[..., 0] for p in polys], axis=-1)


def test_the_reported_batch():
    values = float_evaluator([RPoly.const(1, 1), RPoly.var(1, 1) ** 2])([1e200])
    assert values.tolist() == [1.0, float("inf")]


def random_poly(ring, rng, n):
    def coeff():
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return GaussianRational(re, rng.randint(-2, 2)) if ring is CPoly else re

    return ring(n, {tuple(rng.randint(0, 4) for _ in range(n)): coeff() for _ in range(rng.randint(0, 4))})


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_a_non_finite_batch_matches_each_polynomial_alone(ring):
    rng = random.Random(17 + (ring is CPoly))
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        polys = [random_poly(ring, rng, n) for _ in range(rng.randint(2, 4))]
        scale = rng.choice([1.0, 1e80, 1e160, 1e308])
        points = np.array([[rng.uniform(-2, 2) * scale for _ in range(n)] for _ in range(3)])
        batch = float_evaluator(polys)
        expected = alone(polys, points)
        values = batch(points)
        finite = np.isfinite(expected)
        # every value that is not finite alone is exactly what it is alone
        assert np.array_equal(values[~finite], expected[~finite], equal_nan=True)
        assert np.allclose(values[finite], expected[finite], rtol=1e-12, atol=0)
        out = np.empty_like(values)
        assert batch(points, out=out) is out
        assert np.array_equal(out, values, equal_nan=True)
        checked += not finite.all()
    assert checked > 5


def test_a_finite_batch_keeps_its_values():
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    polys = [z1 * z2 + 1, z1 - GaussianRational(0, 1) * z2, CPoly.zero(2)]
    points = np.array([[0.5, -1.25j], [2.0, 3.0]])
    values = float_evaluator(polys)(points)
    assert values.tolist() == [[1 - 0.625j, -0.75, 0j], [7, 2 - 3j, 0j]]
    assert np.array_equal(values, alone(polys, points))
