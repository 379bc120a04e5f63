"""The field and bivector layer over RPoly: realified objects through the generic code."""

import random

from holomult.calculus import VectorField, VolumeForm, lie_bracket
from holomult.poisson import Bivector, hamiltonian_field, is_poisson, jacobiator, modular_field
from holomult.poly import CPoly, RPoly
from holomult.realify import RealBivector, RealVectorField, is_real_poisson, realify_poisson

from conftest import random_cpoly


def _all_rpoly(field):
    return all(type(c) is RPoly for c in field.components)


def test_real_jacobiator_components_are_rpoly():
    q = RealBivector(4, {(1, 2): RPoly.var(4, 3)})
    defect = jacobiator(q)
    assert defect.is_zero()
    # an absent triple reads as a zero of the bivector's ring
    absent = defect.component(1, 2, 3)
    assert type(absent) is RPoly and absent.is_zero()
    # a present component of a non-Poisson real bivector is an RPoly too
    x1, x4 = RPoly.var(4, 1), RPoly.var(4, 4)
    defect = jacobiator(RealBivector(4, {(1, 2): x4, (3, 4): x1}))
    assert not defect.is_zero()
    assert all(type(c) is RPoly for c in defect.comps.values())


def test_real_jacobi_verdict_matches_complex():
    # a holomorphic bivector is Poisson exactly when both realified halves are
    rng = random.Random(7)
    verdicts = []
    for _ in range(12):
        p = Bivector(3, {key: random_cpoly(rng, 3, max_degree=2, max_terms=2)
                         for key in ((1, 2), (1, 3), (2, 3))})
        holo = is_poisson(p)
        q_re, q_im = realify_poisson(p)
        assert is_real_poisson(q_re) == holo
        assert is_real_poisson(q_im) == holo
        verdicts.append(holo)
    assert True in verdicts and False in verdicts


def test_real_bivector_fields_are_real():
    z1, z2, z3 = (CPoly.var(3, k) for k in (1, 2, 3))
    p = Bivector(3, {(1, 2): z3 * z3, (1, 3): z2, (2, 3): z1 * z2})
    q_re, q_im = realify_poisson(p)
    u = RPoly.var(6, 1) * RPoly.var(6, 5)
    for q in (q_re, q_im):
        for field in (hamiltonian_field(u, q), modular_field(q, VolumeForm(q.n))):
            assert type(field) is RealVectorField
            assert _all_rpoly(field)


def test_real_fields_keep_their_class():
    x, y = RPoly.var(2, 1), RPoly.var(2, 2)
    rotation = RealVectorField(2, [-y, x])
    euler = RealVectorField(2, [x, y])
    for field in (rotation + euler, -rotation, rotation.scale(3), lie_bracket(rotation, euler),
                  RealVectorField.zero(2), RealVectorField.coordinate(2, 1)):
        assert type(field) is RealVectorField
        assert _all_rpoly(field)
    assert type(RealBivector(2, {}).entry(2, 1)) is RPoly


def test_real_and_complex_objects_never_compare_equal():
    assert RealVectorField.zero(2) != VectorField.zero(2)
    assert RealBivector(2, {}) != Bivector(2, {})
