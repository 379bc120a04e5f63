"""Bivectors and Jacobiators are multivectors: one skew container over a ring."""

from holomult.calculus import Multivector, VolumeForm, curl
from holomult.poisson import Bivector, Trivector, jacobiator
from holomult.poly import CPoly, RPoly
from holomult.realify import RealBivector


def test_jacobiator_is_a_grade_three_multivector_over_the_ring():
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    x1, x2 = RPoly.var(2, 1), RPoly.var(2, 2)
    # on a plane there is no triple: grade 3 exceeds n and the result is zero
    for p, ring in ((Bivector(2, {(1, 2): z1 * z2}), CPoly),
                    (RealBivector(2, {(1, 2): x1 * x2}), RPoly)):
        defect = jacobiator(p)
        assert type(defect) is Multivector and defect.grade == 3 and defect.n == 2
        assert defect.ring is ring and defect.is_zero()
        absent = defect.component((1, 2, 3))
        assert type(absent) is ring and absent.is_zero()
        assert type(defect.component(1, 2, 3)) is ring
    defect = jacobiator(RealBivector(4, {(1, 2): RPoly.var(4, 3)}))
    assert type(defect) is Multivector and defect.grade == 3
    absent = defect.component((1, 2, 3))
    assert type(absent) is RPoly and absent.is_zero()
    assert Trivector is Multivector


def test_bivector_arithmetic_keeps_the_class():
    z1, z2, z3 = (CPoly.var(3, k) for k in (1, 2, 3))
    p = Bivector(3, {(1, 2): z3, (1, 3): z1 * z2})
    q = Bivector(3, {(1, 2): -z3, (2, 3): z1})
    expected = {
        "sum": (p + q, Bivector(3, {(1, 3): z1 * z2, (2, 3): z1})),
        "difference": (p - q, Bivector(3, {(1, 2): z3 + z3, (1, 3): z1 * z2, (2, 3): -z1})),
        "negation": (-p, Bivector(3, {(1, 2): -z3, (1, 3): -(z1 * z2)})),
        "scaled": (p.scale(z2), Bivector(3, {(1, 2): z3 * z2, (1, 3): z1 * z2 * z2})),
        "constant": (p.scale(2), Bivector(3, {(1, 2): z3 + z3, (1, 3): z1 * z2 + z1 * z2})),
    }
    for name, (got, want) in expected.items():
        assert type(got) is Bivector, name
        assert got == want, name
    x1, x2 = RPoly.var(2, 1), RPoly.var(2, 2)
    r = RealBivector(2, {(1, 2): x1})
    for got, want in ((r + r, RealBivector(2, {(1, 2): x1 + x1})),
                      (-r, RealBivector(2, {(1, 2): -x1})),
                      (r.scale(x2), RealBivector(2, {(1, 2): x1 * x2}))):
        assert type(got) is RealBivector
        assert got == want
        assert got.entry(2, 1) == -got.component(1, 2)


def test_bivector_is_hashable_and_shows_its_grade():
    z1 = CPoly.var(2, 1)
    p = Bivector(2, {(1, 2): z1})
    assert len({p, Bivector(2, {(1, 2): z1}), Bivector(2, {})}) == 2
    assert repr(p) == "Bivector(n=2, grade=2, {(1, 2): z1})"


def test_curl_of_a_bivector_is_curl_of_its_multivector():
    z1, z2, z3 = (CPoly.var(3, k) for k in (1, 2, 3))
    comps = {(1, 2): z3 * z3 - z1, (1, 3): z1 * z2, (2, 3): z2 * z3}
    p = Bivector(3, comps)
    for omega in (VolumeForm(3), VolumeForm(3, 5)):
        assert curl(p, omega) == curl(Multivector(3, 2, comps), omega)
        assert not curl(p, omega).is_zero()
