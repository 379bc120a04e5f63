"""Exact evaluation and the dimension-edge predicates over RPoly.

`evaluate_exact` lives on the shared polynomial base, so `dim4_exactness`
can test a vanishing point of a `RealBivector`, and `is_last_multiplier`
treats the scalar lowered field of dimension 1 alike in both rings.
"""

from fractions import Fraction

import pytest

from holomult.calculus import RealVectorField, VectorField, VolumeForm
from holomult.multipliers import is_last_multiplier
from holomult.poisson import Bivector, dim4_exactness, exactness_check
from holomult.poly import CPoly, RPoly
from holomult.realify import RealBivector, realify_poisson
from holomult.scalars import GaussianRational


def test_evaluate_exact_in_both_rings():
    x1, x2 = RPoly.var(2, 1), RPoly.var(2, 2)
    value = (x1 * x1 * x2 - x2.scale(Fraction(1, 2))).evaluate_exact([Fraction(1, 3), 2])
    assert value == Fraction(2, 9) - 1
    assert type(value) is Fraction
    assert type(RPoly.zero(2).evaluate_exact([1, 1])) is Fraction
    with pytest.raises(ValueError):
        x1.evaluate_exact([1])
    with pytest.raises(ValueError):
        x1.evaluate_exact([GaussianRational(0, 1), 0])
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    value = (z1 * z2 + z1.scale(GaussianRational(0, 1))).evaluate_exact([GaussianRational(0, 1), 3])
    assert value == GaussianRational(-1, 3)
    assert type(value) is GaussianRational


def test_dim4_exactness_on_real_bivectors_with_a_vanishing_point():
    x1, x2, y1, _ = (RPoly.var(4, k) for k in range(1, 5))
    origin = (0, 0, 0, 0)
    result = dim4_exactness(RealBivector(4, {(1, 2): x1 * y1, (3, 4): x2}), VolumeForm(4), vanish_point=origin)
    assert not result.exact
    assert result.pfaffian == x1 * y1 * x2
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    for q in realify_poisson(Bivector(2, {(1, 2): z1 * z2})):
        result = dim4_exactness(q, VolumeForm(4), vanish_point=origin)
        assert result.exact == exactness_check(q, VolumeForm(4)).exact
        assert type(result.pfaffian) is RPoly


def test_last_multiplier_in_dimension_one_over_rpoly():
    x = RPoly.var(1, 1)
    failing = is_last_multiplier(x, RealVectorField(1, [x]), VolumeForm(1))
    assert not failing.ok
    assert failing.residual == x.scale(2)
    # a constant field keeps the constant multiplier
    assert is_last_multiplier(RPoly.const(1, 1), RealVectorField(1, [RPoly.const(1, 3)]), VolumeForm(1)).ok
    z = CPoly.var(1, 1)
    assert not is_last_multiplier(z, VectorField(1, [z]), VolumeForm(1)).ok
