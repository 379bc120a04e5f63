"""The form calculus and the cross-checked bivector predicates on RPoly.

flat, sharp, curl and Multivector.to_field build in the ring of their
argument, so the three routes of `bivector_lm_check` and the curl of
`exactness_check` agree on a `RealBivector` and return `RealVectorField`s.
"""

from holomult.calculus import Form, Multivector, VolumeForm, curl, flat, pairing, partial_d, sharp, wedge
from holomult.poisson import bivector_lm_check, exactness_check
from holomult.poly import RPoly
from holomult.realify import RealBivector, RealVectorField


def xs(n):
    return [RPoly.var(n, k) for k in range(1, n + 1)]


def test_real_bivector_multiplier_check_gives_a_verdict():
    x1, x2, x3 = xs(3)
    zero = RPoly.zero(3)
    failing = bivector_lm_check(x1, RealBivector(3, {(1, 2): x3 * x1}), VolumeForm(3))
    assert not failing.ok
    assert type(failing.residual) is RealVectorField
    assert failing.residual == RealVectorField(3, [zero, (x1 * x3).scale(-2), zero])
    passing = bivector_lm_check(x3, RealBivector(3, {(1, 2): x3}), VolumeForm(3))
    assert passing.ok


def test_real_exactness_check_returns_a_real_field():
    x1, _, x3 = xs(3)
    result = exactness_check(RealBivector(3, {(1, 2): x3 * x1}), VolumeForm(3))
    assert not result.exact
    assert type(result.residual) is RealVectorField
    assert all(type(c) is RPoly for c in result.residual.components)
    assert result.residual == RealVectorField(3, [RPoly.zero(3), -x3, RPoly.zero(3)])


def test_form_operations_stay_in_the_real_ring():
    x1, x2, x3 = xs(3)
    p = RealBivector(3, {(1, 2): x3 * x1, (2, 3): x2})
    omega = VolumeForm(3, 2)
    lowered = flat(p, omega)
    assert lowered.ring is RPoly
    assert sharp(lowered, omega) == Multivector(3, 2, p.comps, RPoly)
    assert curl(p, omega).ring is RPoly
    assert partial_d(x1 * x2).ring is RPoly
    assert wedge(lowered, partial_d(x3)).ring is RPoly
    assert type(pairing(partial_d(x1), RealVectorField(3, [x2, x3, x1]))) is RPoly
    assert type(sharp(x1, omega).component(1, 2, 3)) is RPoly
    assert type(flat(x1, omega)) is Form and flat(x1, omega).ring is RPoly
