"""`apply_field` compares rings, and each multiplier residual is one signed sum.

A polynomial of the other ring is refused with the kernel's `TypeError`
("ring mismatch: <field ring> vs <polynomial ring>"), the message that
`darboux_cofactor` raises on the same pair; before, the derivative came back
in the field's ring.  `is_first_integral` goes through the same check.

`is_last_multiplier`, `is_inverse_multiplier`, `adjoint_apply`,
`divergence_type_check` and `realify.real_lm_residual` add Z(a) and the
(+-1, a, div Z) product in one kernel sum.  Each is compared here with the
spelling it replaced, `apply_field(...) +- a * divergence(...)`, on random
fields in both rings.
"""

import random
from fractions import Fraction

import pytest

from holomult.calculus import RealVectorField, VectorField, VolumeForm, apply_field, divergence
from holomult.multipliers import (
    adjoint_apply,
    darboux_cofactor,
    divergence_type_check,
    is_first_integral,
    is_inverse_multiplier,
    is_last_multiplier,
)
from holomult.poly import CPoly, RPoly
from holomult.realify import modsq, real_lm_residual, realify_field
from holomult.scalars import GaussianRational

RINGS = [(VectorField, CPoly), (RealVectorField, RPoly)]
ring_ids = ["complex", "real"]


def other(ring):
    return RPoly if ring is CPoly else CPoly


# -- the ring check ----------------------------------------------------------------------


@pytest.mark.parametrize("cls, ring", RINGS, ids=ring_ids)
def test_apply_field_refuses_the_other_ring(cls, ring):
    field = cls(2, [ring.var(2, 1), ring.var(2, 2)])
    message = f"ring mismatch: {ring.__name__} vs {other(ring).__name__}"
    with pytest.raises(TypeError, match=message):
        apply_field(field, other(ring).var(2, 1))
    with pytest.raises(TypeError, match=message):
        is_first_integral(other(ring).var(2, 1), field)
    # the message darboux_cofactor already gave on the same pair
    with pytest.raises(TypeError, match=message):
        darboux_cofactor(other(ring).var(2, 1), field)


@pytest.mark.parametrize("cls, ring", RINGS, ids=ring_ids)
def test_the_ring_check_comes_first_even_on_an_empty_field(cls, ring):
    with pytest.raises(TypeError, match="ring mismatch"):
        apply_field(cls.zero(2), other(ring).var(2, 1))
    with pytest.raises(TypeError, match="ring mismatch"):
        apply_field(cls.zero(2), other(ring).var(3, 1))


@pytest.mark.parametrize("cls, ring", RINGS, ids=ring_ids)
def test_the_multiplier_residuals_refuse_the_other_ring(cls, ring):
    field, omega = cls(2, [ring.var(2, 2), ring.var(2, 1)]), VolumeForm(2)
    a = other(ring).var(2, 1)
    for call in (lambda: is_last_multiplier(a, field, omega),
                 lambda: is_inverse_multiplier(a, field, omega),
                 lambda: adjoint_apply(field, a, omega)):
        with pytest.raises(TypeError, match="ring mismatch"):
            call()
    if ring is RPoly:
        with pytest.raises(TypeError, match="ring mismatch"):
            real_lm_residual(a, field)


@pytest.mark.parametrize("cls, ring", RINGS, ids=ring_ids)
def test_same_ring_results_keep_their_ring(cls, ring):
    x1, x2 = ring.var(2, 1), ring.var(2, 2)
    field = cls(2, [x1, x2])
    assert type(apply_field(field, x1 * x2)) is ring
    check = is_first_integral(x1 * x1 - x2 * x2, cls(2, [x2, x1]))
    assert check.ok and type(check.residual) is ring
    assert not is_first_integral(x1, field).ok


def test_dimension_mismatch_is_still_a_value_error():
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_field(VectorField.zero(2), CPoly.var(3, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        is_first_integral(RPoly.var(1, 1), RealVectorField.zero(2))


# -- one signed sum per residual --------------------------------------------------------------


def random_poly(rng, ring, n, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(n)] += 1
        re = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        terms[tuple(mono)] = GaussianRational(re, rng.randint(-2, 2)) if ring is CPoly else re
    return ring(n, terms)


def same(a, b):
    assert type(a) is type(b)
    assert a == b
    assert (a._re, a._im, a._den) == (b._re, b._im, b._den)


@pytest.mark.parametrize("cls, ring", RINGS, ids=ring_ids)
def test_each_residual_equals_the_old_spelling(cls, ring):
    rng = random.Random(2203 if ring is CPoly else 2204)
    for _ in range(40):
        n = rng.randint(1, 4)
        field = cls(n, [random_poly(rng, ring, n, 2, 3) for _ in range(n)])
        omega = VolumeForm(n, rng.choice([1, 2, GaussianRational(1, 1)]) if ring is CPoly else 1)
        a = random_poly(rng, ring, n)
        div = divergence(field, omega)
        last = apply_field(field, a) + a * div
        same(is_last_multiplier(a, field, omega).residual, last)
        same(is_inverse_multiplier(a, field, omega).residual, apply_field(field, a) - div * a)
        same(adjoint_apply(field, a, omega), -apply_field(field, a) - a * div)
        w = cls(n, [random_poly(rng, ring, n, 2, 2) for _ in range(n)])
        div_w = divergence(w, omega)
        same(divergence_type_check(w, field, omega).residual, apply_field(field, div_w) + div_w * div)
        if ring is RPoly:
            same(real_lm_residual(a, field), last)


def test_real_lm_residual_of_a_modulus_squared_on_realified_fields():
    rng = random.Random(2205)
    for _ in range(15):
        n = rng.randint(1, 3)
        field = VectorField(n, [random_poly(rng, CPoly, n, 2, 3) for _ in range(n)])
        field_re, _ = realify_field(field)
        u = modsq(random_poly(rng, CPoly, n, 2, 3))
        old = apply_field(field_re, u) + u * divergence(field_re, VolumeForm(2 * n))
        same(real_lm_residual(u, field_re), old)
