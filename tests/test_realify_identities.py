"""The holomorphic/real correspondence as exact identities on failing inputs.

`realify._realify` gives (Re M, Im M) on R^{2n} for a holomorphic
multivector M of any grade, from d/dz^k = (d/dx^k - i d/dy^k)/2.  The real
Jacobiator and modular field are the `poisson` functions on `RPoly`, so they
are compared here with the realification of the complex results on random
bivectors that are mostly *not* Poisson, and on random fields: a sign slip
on either side shows as a nonzero difference, not as zero against zero.

- J(q_re) = Re J(P)/2 and J(q_im) = -Re J(P)/2, since Re P = (P + conj P)/2,
  Im P = (P - conj P)/2i and [P, conj P] = 0 for holomorphic P;
- modular(q_re) = Re modular(P) and modular(q_im) = Im modular(P) on unit
  volumes;
- div(2 Re Z) = 2 Re div Z and div(2 Im Z) = 2 Im div Z.
"""

from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from holomult.calculus import Multivector, VectorField, VolumeForm, divergence
from holomult.poisson import Bivector, jacobiator, modular_field
from holomult.poly import CPoly, RPoly
from holomult.realify import (
    RealVectorField, _realify, real_divergence, real_modular_field, realify_field, realify_poisson,
)
from holomult.scalars import GaussianRational

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))

small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2]))
gaussian = st.builds(GaussianRational, small, small)


@st.composite
def quadratics(draw, n):
    """A polynomial of degree at most 2 on C^n with Gaussian rational coefficients."""
    # a = b = -1 is the constant, a = -1 <= b a linear and 0 <= a <= b a quadratic monomial
    monos = [tuple((k == a) + (k == b) for k in range(n)) for a in range(-1, n) for b in range(a, n)]
    return CPoly(n, draw(st.dictionaries(st.sampled_from(monos), gaussian, min_size=1, max_size=4)))


@st.composite
def bivectors(draw, n):
    keys = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    stored = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True, max_size=len(keys)))
    return Bivector(n, {key: draw(quadratics(n)) for key in stored})


def realified(m, factor):
    """factor * (Re M, Im M) of a complex multivector, as multivectors over RPoly."""
    splits = {key: comp.realify_split() for key, comp in m.comps.items()}
    return _realify(m.n, m.grade, splits, Multivector, factor)


@pytest.mark.parametrize("n", [2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_real_jacobiators_are_half_the_real_part_of_the_complex_one(n, data):
    p = data.draw(bivectors(n))
    defect = jacobiator(p)
    if n > 2:
        assume(defect)
    q_re, q_im = realify_poisson(p)
    assert jacobiator(q_re) == realified(defect, Fraction(1, 2))[0]
    assert jacobiator(q_im) == realified(defect, Fraction(-1, 2))[0]


@pytest.mark.parametrize("n", [2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_real_modular_fields_are_the_parts_of_the_complex_one(n, data):
    p = data.draw(bivectors(n))
    modular = modular_field(p, VolumeForm(n))
    assume(modular)
    q_re, q_im = realify_poisson(p)
    splits = {key: comp.realify_split() for key, comp in modular.comps.items()}
    real_part, imag_part = _realify(n, 1, splits, RealVectorField, 1)
    assert real_modular_field(q_re) == real_part
    assert real_modular_field(q_im) == imag_part


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data())
def test_real_divergences_are_twice_the_parts_of_the_complex_one(n, data):
    z = VectorField(n, [data.draw(quadratics(n)) for _ in range(n)])
    div_re, div_im = divergence(z, VolumeForm(n)).realify_split()
    field_re, field_im = realify_field(z)
    assert real_divergence(field_re) == div_re.scale(2)
    assert real_divergence(field_im) == div_im.scale(2)


def test_realified_coordinate_trivector_on_c3():
    # 8 d/dz1 ^ d/dz2 ^ d/dz3 = (d/dx1 - i d/dy1) ^ (d/dx2 - i d/dy2) ^ (d/dx3 - i d/dy3),
    # expanded by hand: (-i)^q for q y's, each product sorted into x1..x3, y1..y3 with its sign
    expected_re = {(1, 2, 3): 1, (1, 5, 6): -1, (2, 4, 6): 1, (3, 4, 5): -1}
    expected_im = {(1, 2, 6): -1, (1, 3, 5): 1, (2, 3, 4): -1, (4, 5, 6): 1}
    top = Multivector(3, 3, {(1, 2, 3): CPoly.const(3, 1)}, CPoly)
    for got, expected in zip(realified(top, 8), (expected_re, expected_im)):
        assert got.comps == {key: RPoly.const(6, value) for key, value in expected.items()}
