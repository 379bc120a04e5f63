"""A vector field is the grade-1 multivector of its ring.

Seeded CPoly and RPoly fields are compared with hand-built grade-1
`Multivector`s holding the same components: every calculus operation gives
the same result on both, arithmetic keeps the field class, `components`
keeps its zeros in coordinate order, and a field never equals the plain
multivector it matches.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from holomult.calculus import (
    Form,
    Multivector,
    RealVectorField,
    VectorField,
    VolumeForm,
    flat,
    interior_product,
    pairing,
    wedge,
)
from holomult.multipliers import frame_volume
from holomult.poly import CPoly, RPoly

from conftest import random_gaussian

FIELDS = {CPoly: VectorField, RPoly: RealVectorField}


def _poly(rng, ring, n, max_terms=3, max_degree=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(n)] += 1
        if ring is CPoly:
            terms[tuple(mono)] = random_gaussian(rng)
        else:
            terms[tuple(mono)] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    return ring(n, terms)


def _field(rng, ring, n):
    return FIELDS[ring](n, [_poly(rng, ring, n) for _ in range(n)])


def _as_multivector(field):
    comps = {(i,): c for i, c in enumerate(field.components, start=1)}
    return Multivector(field.n, 1, comps, field.ring)


def _form(rng, ring, n, grade):
    comps = {key: _poly(rng, ring, n) for key in combinations(range(1, n + 1), grade)}
    return Form(n, grade, comps, ring)


CASES = [(ring, n, seed) for ring in (CPoly, RPoly) for n in (1, 2, 3, 4) for seed in range(3)]
IDS = [f"{ring.__name__}-n{n}-s{seed}" for ring, n, seed in CASES]


@pytest.mark.parametrize("ring,n,seed", CASES, ids=IDS)
def test_calculus_on_a_field_equals_calculus_on_its_multivector(ring, n, seed):
    rng = random.Random(1000 * n + seed)
    omega = VolumeForm(n, 2 if ring is RPoly else random_gaussian(rng, allow_zero=False))
    frame = [_field(rng, ring, n) for _ in range(n)]
    hand = [_as_multivector(z) for z in frame]
    z, m = frame[0], hand[0]

    assert flat(z, omega) == flat(m, omega)
    for grade in range(1, n + 1):
        phi = _form(rng, ring, n, grade)
        assert interior_product(z, phi) == interior_product(m, phi)
    one_form = _form(rng, ring, n, 1)
    assert pairing(one_form, z) == pairing(one_form, m)

    top, top_hand = z, m
    for w, w_hand in zip(frame[1:], hand[1:]):
        assert wedge(top, w) == wedge(top_hand, w_hand)
        top, top_hand = wedge(top, w), wedge(top_hand, w_hand)
    assert frame_volume(frame, omega) == flat(top_hand, omega)


@pytest.mark.parametrize("ring", [CPoly, RPoly], ids=lambda r: r.__name__)
def test_arithmetic_keeps_the_field_class(ring):
    rng = random.Random(77)
    cls = FIELDS[ring]
    z, w = _field(rng, ring, 3), _field(rng, ring, 3)
    factor = _poly(rng, ring, 3, max_terms=2) + ring.const(3, 1)
    results = {
        "sum": (z + w, [a + b for a, b in zip(z.components, w.components)]),
        "difference": (z - w, [a - b for a, b in zip(z.components, w.components)]),
        "negation": (-z, [-a for a in z.components]),
        "poly scale": (z.scale(factor), [a * factor for a in z.components]),
        "constant scale": (z.scale(3), [a.scale(3) for a in z.components]),
    }
    for name, (got, want) in results.items():
        assert type(got) is cls, name
        assert got.components == want, name
        assert got == cls(3, want), name


@pytest.mark.parametrize("ring", [CPoly, RPoly], ids=lambda r: r.__name__)
def test_components_keep_their_zeros_in_coordinate_order(ring):
    cls = FIELDS[ring]
    x1, x3 = ring.var(4, 1), ring.var(4, 3)
    zero = ring.zero(4)
    z = cls(4, [zero, x3, zero, x1])
    assert z.components == [zero, x3, zero, x1]
    assert all(type(c) is ring for c in z.components)
    # a sum built out of coordinate order still reads in coordinate order
    w = cls(4, [x1, zero, zero, zero]) + cls(4, [zero, zero, x3, -x1])
    assert w.components == [x1, zero, x3, -x1]
    assert (z - z).components == [zero] * 4
    assert (z - z).is_zero() and not (z - z)
    assert cls.zero(4).components == [zero] * 4
    assert cls.coordinate(4, 2).components == [zero, ring.const(4, 1), zero, zero]


@pytest.mark.parametrize("ring", [CPoly, RPoly], ids=lambda r: r.__name__)
def test_a_field_never_equals_a_plain_multivector(ring):
    rng = random.Random(5)
    cls = FIELDS[ring]
    z = _field(rng, ring, 3)
    while z.is_zero():
        z = _field(rng, ring, 3)
    m = _as_multivector(z)
    assert isinstance(z, Multivector) and z.grade == 1 and z.ring is ring
    assert z != m and m != z
    assert len({z, m}) == 2
    assert m.to_field() == z and type(m.to_field()) is cls
    # equal fields built in different component orders hash alike
    parts = [cls(3, [c if k == i else ring.zero(3) for k, c in enumerate(z.components)])
             for i in range(3)]
    forward = parts[0] + parts[1] + parts[2]
    backward = parts[2] + parts[1] + parts[0]
    assert forward == backward == z
    assert hash(forward) == hash(backward) == hash(z)
    assert len({forward, backward, z}) == 1
    other = z + cls.coordinate(3, 1)
    assert other != z


def test_real_and_complex_fields_differ():
    z = VectorField(2, [CPoly.var(2, 1), CPoly.zero(2)])
    x = RealVectorField(2, [RPoly.var(2, 1), RPoly.zero(2)])
    assert z != x and x != z
    with pytest.raises(ValueError):
        z + x
