"""Differential proof of the fused product sums.

`_BasePoly._sum` takes (sign, p, q) items beside (sign, p) items and
convolves each product straight into the one signed sum through
`poly._mul_into`.  The sum of (s, a, b) items must equal the sum of
(s, a * b) items in canonical storage, in both rings, and the calculus
results built from fused terms (wedge, interior product both ways, pairing,
apply, Jacobiator, curl, Hamiltonian field) must equal the earlier
term-by-term code kept verbatim in tests/test_signed_sum_differential.py.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from holomult import poly
from holomult.calculus import (
    Form,
    Multivector,
    VolumeForm,
    apply_field,
    curl,
    interior_product,
    pairing,
    partial_d,
    wedge,
)
from holomult.poisson import Bivector, hamiltonian_field, jacobiator
from holomult.poly import CPoly, RPoly, _BasePoly
from holomult.realify import RealBivector
from holomult.scalars import GaussianRational
from test_signed_sum_differential import (
    FIELD_OF,
    SETTINGS,
    graded,
    polys,
    ref_apply_field,
    ref_flat,
    ref_interior_product,
    ref_jacobiator,
    ref_pairing,
    ref_partial_d,
    ref_sharp,
    ref_wedge,
    rings,
    same,
    spaces,
)


def unfused(ring, n, items):
    """The same sum with every product built first by `*`."""
    return ring._sum(n, [(item[0], item[1] * item[2]) if len(item) == 3 else item for item in items])


def mixed_items(ring, n):
    """Plain and product items in any order, zero factors included."""
    sign = st.sampled_from([1, -1])
    plain = st.tuples(sign, polys(ring, n, max_terms=4))
    product = st.tuples(sign, polys(ring, n), polys(ring, n))
    return st.lists(st.one_of(plain, product), max_size=6)


# -- the kernel sum ------------------------------------------------------------


@SETTINGS
@given(st.data(), st.integers(1, 4), rings)
def test_fused_sum_equals_the_sum_of_built_products(data, n, ring):
    products = data.draw(st.lists(st.tuples(st.sampled_from([1, -1]), polys(ring, n), polys(ring, n)),
                                  max_size=6))
    same(ring._sum(n, products), unfused(ring, n, products))
    items = data.draw(mixed_items(ring, n))
    same(ring._sum(n, items), unfused(ring, n, items))


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_fused_sum_edge_cases(ring):
    n = 2
    x, y, zero = ring.var(n, 1), ring.var(n, 2), ring.zero(n)
    third = x.scale(Fraction(1, 3)) + y.scale(Fraction(5, 2))
    half = x.scale(Fraction(1, 2))
    cases = [
        [],
        [(-1, third, half)],
        [(1, zero, third), (-1, third, zero), (1, zero, zero)],
        [(1, third, half), (-1, half, third)],
        [(1, third, half), (-1, third.scale(Fraction(1, 2)), x)],
        [(1, third, y), (-1, half, x.scale(Fraction(3, 7))), (1, y.scale(Fraction(2, 5)), third)],
        [(1, third), (1, half, y), (-1, third)],
        [(1, half, half), (-1, x.scale(Fraction(1, 4)), x)],
        [(-1, x), (1, zero, y), (1, x)],
    ]
    if ring is CPoly:
        gauss = x.scale(GaussianRational(1, 1) / 2) + y.scale(GaussianRational(0, 2) / 3)
        cases.append([(1, gauss, gauss.conjugate()), (-1, gauss.conjugate(), gauss)])
        cases.append([(1, gauss, x.scale(GaussianRational(0, 1))), (-1, third, gauss), (1, gauss)])
        cases.append([(-1, gauss, gauss)])
    for items in cases:
        same(ring._sum(n, items), unfused(ring, n, items))
    empty = ring._sum(n, [])
    assert empty.is_zero() and type(empty) is ring
    assert ring._sum(n, [(1, third, zero)]).is_zero()
    assert ring._sum(n, [(-1, third, half)]) == -(third * half)


# -- the calculus against the verbatim reference --------------------------------


@SETTINGS
@given(st.data(), spaces(), st.sampled_from([Form, Multivector]))
def test_wedge_matches(data, space, kind):
    n, ring, _ = space
    a = data.draw(graded(kind, ring, n, data.draw(st.integers(0, n))))
    b = data.draw(graded(kind, ring, n, data.draw(st.integers(0, n))))
    same(wedge(a, b), ref_wedge(a, b))


@SETTINGS
@given(st.data(), spaces(), st.booleans())
def test_interior_product_matches_both_ways(data, space, into_form):
    n, ring, _ = space
    inner, outer = (Multivector, Form) if into_form else (Form, Multivector)
    a = data.draw(graded(inner, ring, n, data.draw(st.integers(0, n))))
    phi = data.draw(graded(outer, ring, n, data.draw(st.integers(0, n))))
    same(interior_product(a, phi), ref_interior_product(a, phi))


@SETTINGS
@given(st.data(), spaces())
def test_pairing_and_apply_field_match(data, space):
    n, ring, _ = space
    grade = data.draw(st.integers(0, n))
    phi = data.draw(graded(Form, ring, n, grade))
    a = data.draw(graded(Multivector, ring, n, grade))
    same(pairing(phi, a), ref_pairing(phi, a))
    field = FIELD_OF[ring](n, [data.draw(polys(ring, n)) for _ in range(n)])
    f = data.draw(polys(ring, n, max_terms=4))
    same(apply_field(field, f), ref_apply_field(field, f))


@SETTINGS
@given(st.data(), spaces())
def test_curl_matches_on_every_grade(data, space):
    n, ring, omega = space
    a = data.draw(graded(Multivector, ring, n, data.draw(st.integers(1, n))))
    same(curl(a, omega), ref_sharp(ref_partial_d(ref_flat(a, omega)), omega))


@SETTINGS
@given(st.data(), st.integers(2, 6), st.sampled_from([Bivector, RealBivector]))
def test_jacobiator_and_hamiltonian_field_match(data, n, cls):
    ring = cls.field.ring
    p = cls(n, data.draw(graded(Multivector, ring, n, 2)).comps)
    f = data.draw(polys(ring, n, max_terms=4))
    same(hamiltonian_field(f, p), ref_interior_product(ref_partial_d(f), p).to_field())
    same(jacobiator(p), ref_jacobiator(p))


def test_a_product_of_polynomials_is_one_call_of_the_product_routine(monkeypatch):
    calls = []
    mul_into = poly._mul_into

    def counting(re, im, a, b, k):
        calls.append(k)
        return mul_into(re, im, a, b, k)

    monkeypatch.setattr(poly, "_mul_into", counting)
    x, y = CPoly.var(2, 1), CPoly.var(2, 2)
    assert x * y == CPoly(2, {(1, 1): 1})
    assert calls == [1]


def test_no_calculus_result_builds_a_product_polynomial(monkeypatch):
    n = 4
    z = [CPoly.var(n, k) for k in range(1, n + 1)]
    p = Bivector(n, {(i, j): z[i - 1] * z[j - 1] + z[(i + j) % n].scale(i - j)
                     for i in range(1, n + 1) for j in range(i + 1, n + 1)})
    f = z[0] * z[1] + z[2].scale(3)
    field = p.field(n, [f, z[3], z[0] * z[2], z[1]])
    omega = VolumeForm(n, 2)
    df = partial_d(f)
    form2 = wedge(df, partial_d(z[3]))

    calls = []
    mul = _BasePoly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(_BasePoly, "__mul__", counting_mul)
    wedge(df, form2)
    wedge(field, p)
    interior_product(df, p)
    interior_product(field, form2)
    pairing(form2, p)
    apply_field(field, f)
    curl(p, omega)
    hamiltonian_field(f, p)
    jacobiator(p)
    assert calls == []
