"""The integer-numerator storage of the polynomial kernel.

A polynomial stores Gaussian-integer numerators (`_re`, `_im`) over one
positive denominator `_den`, reduced so that the gcd of the denominator and
every numerator is 1; each monomial is one packed int key, read and written
here through the kernel's own `_pack` and `_unpack`.  These tests check that
canonical form directly:

* results equal the old Fraction-valued `*`, `+` and `diff` (kept below as
  the reference, built through the validating public constructor) down to
  identical numerators, denominator and hash;
* equal polynomials reached by different routes share their storage;
* the `terms` view has the ring's scalar types and is built once;
* the ring operations build no Fraction and no Gaussian rational.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holomult.poly
import holomult.scalars
from holomult.poly import CPoly, RPoly, _pack, _unpack
from holomult.scalars import GaussianRational

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

numerators = st.one_of(st.integers(-6, 6), st.integers(-10**30, 10**30))
denominators = st.one_of(st.sampled_from([1, 1, 2, 3, 4, 6, 12]), st.integers(1, 10**24))
rationals = st.builds(Fraction, numerators, denominators)
# common Gaussian factors that the integer gcd must leave alone
contents = st.sampled_from([GaussianRational(1), GaussianRational(1, 1), GaussianRational(2),
                            GaussianRational(0, 2), GaussianRational(3, -3),
                            GaussianRational(Fraction(1, 2), Fraction(1, 2))])


@st.composite
def polys(draw, ring, nvars, max_terms=5):
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.dictionaries(monos, st.tuples(rationals, rationals), max_size=max_terms))
    if ring is RPoly:
        return RPoly(nvars, {m: re for m, (re, _) in terms.items()})
    p = CPoly(nvars, {m: GaussianRational(re, im) for m, (re, im) in terms.items()})
    return p.scale(draw(contents))


@st.composite
def pairs(draw, max_terms=5):
    ring = draw(st.sampled_from([CPoly, RPoly]))
    nvars = draw(st.integers(1, 3))
    return draw(polys(ring, nvars, max_terms)), draw(polys(ring, nvars, max_terms))


# -- the old Fraction-valued kernel, as the reference ----------------------------


def old_add(p, q):
    out = dict(p.terms)
    for mono, coeff in q.terms.items():
        acc = out.get(mono)
        if acc is None:
            out[mono] = coeff
        else:
            acc = acc + coeff
            if acc:
                out[mono] = acc
            else:
                del out[mono]
    return type(p)(p.nvars, out)


def old_mul(p, q):
    out = {}
    get = out.get
    right = q.terms.items()
    for m1, c1 in p.terms.items():
        for m2, c2 in right:
            mono = tuple(map(add, m1, m2))
            acc = get(mono)
            out[mono] = c1 * c2 if acc is None else acc + c1 * c2
    return type(p)(p.nvars, {m: c for m, c in out.items() if c})


def old_diff(p, var_index):
    i = var_index - 1
    out = {}
    for mono, coeff in p.terms.items():
        e = mono[i]
        if e:
            out[mono[:i] + (e - 1,) + mono[i + 1:]] = coeff * e
    return type(p)(p.nvars, out)


# -- checks ----------------------------------------------------------------------


def assert_canonical(p):
    assert type(p._den) is int and p._den > 0
    for part in (p._re, p._im):
        assert all(type(v) is int and v for v in part.values())
        # every key is a well-formed packed monomial in nvars variables
        assert all(type(m) is int and _pack(_unpack(m, p.nvars)) == m for m in part)
    assert gcd(p._den, *p._re.values(), *p._im.values()) == 1
    if type(p) is RPoly:
        assert p._im == {}


def assert_identical(got, want):
    assert type(got) is type(want) and got.nvars == want.nvars
    assert (got._re, got._im, got._den) == (want._re, want._im, want._den)
    assert hash(got) == hash(want)
    assert got.terms == want.terms
    assert_canonical(got)


# -- tests ------------------------------------------------------------------------


@SETTINGS
@given(pairs(), st.integers(1, 3))
def test_operations_match_the_fraction_reference(pq, k):
    p, q = pq
    k = min(k, p.nvars)
    assert_identical(p * q, old_mul(p, q))
    assert_identical(p + q, old_add(p, q))
    assert_identical(p - q, old_add(p, -q))
    assert_identical(p.diff(k), old_diff(p, k))
    assert_identical((p + q) * (p - q), old_mul(old_add(p, q), old_add(p, -q)))


@SETTINGS
@given(pairs())
def test_equal_polynomials_from_different_routes_share_storage(pq):
    p, q = pq
    assert_canonical(p)
    assert_identical(p.scale(Fraction(1, 3)) * 3, p)
    assert_identical((p + q) - q, p)
    zero = p + (-p)
    assert (zero._re, zero._im, zero._den) == ({}, {}, 1)
    assert_identical(zero, type(p).zero(p.nvars))
    assert_identical(p * q - q * p, zero)
    if not q.is_zero():
        assert_identical((p * q).divide_exact(q), p)
    if type(p) is CPoly:
        assert_identical(p.conjugate().conjugate(), p)
        assert_identical(p.scale(GaussianRational(0, 1)).scale(GaussianRational(0, -1)), p)


def test_canonical_form_examples():
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    half = (z1 * z1).scale(Fraction(1, 2))
    z1z1, z1_, z2_, z1z2 = _pack((2, 0)), _pack((1, 0)), _pack((0, 1)), _pack((1, 1))
    assert (half._re, half._im, half._den) == ({z1z1: 1}, {}, 2)
    # the partial 2*z1/2 is reduced to z1 over 1
    assert (half.diff(1)._re, half.diff(1)._den) == ({z1_: 1}, 1)
    # a Gaussian content (1 + i)/3 keeps its integer parts
    p = (z1 + z2).scale(GaussianRational(Fraction(1, 3), Fraction(1, 3)))
    assert (p._re, p._im, p._den) == ({z1_: 1, z2_: 1}, {z1_: 1, z2_: 1}, 3)
    # mixed denominators meet at their least common multiple
    q = z1.scale(Fraction(1, 4)) + z2.scale(Fraction(1, 6))
    assert (q._re, q._den) == ({z1_: 3, z2_: 2}, 12)
    # a large denominator cancels exactly
    big = 10**40 + 7
    r = z1.scale(Fraction(big, 3)) * z2.scale(Fraction(3, big))
    assert (r._re, r._im, r._den) == ({z1z2: 1}, {}, 1)
    # a CPoly with real coefficients equals the RPoly with the same terms
    x = RPoly.var(2, 1).scale(Fraction(1, 4)) + RPoly.var(2, 2).scale(Fraction(1, 6))
    assert q == x and hash(q) == hash(x)


@SETTINGS
@given(pairs())
def test_view_values_have_the_ring_types(pq):
    p, q = pq
    product = p * q
    assert product._view is None
    view = product.terms
    assert product.terms is view  # built once
    for mono, c in view.items():
        assert c
        key = _pack(mono)
        if type(p) is CPoly:
            assert type(c) is GaussianRational
            assert type(c.re) is Fraction and type(c.im) is Fraction
            assert c == GaussianRational(Fraction(product._re.get(key, 0), product._den),
                                         Fraction(product._im.get(key, 0), product._den))
        else:
            assert type(c) is Fraction
            assert c == Fraction(product._re[key], product._den)
    # the view's keys are the storage keys unpacked
    assert set(view) == {_unpack(m, p.nvars) for m in (*product._re, *product._im)}


@contextmanager
def counting_constructions():
    """Yield a list that grows by one for each Fraction or Gaussian rational built."""
    built = []

    def counting(original):
        def wrapper(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counting(Fraction.__new__)))
        if "_from_coprime_ints" in vars(Fraction):  # the arithmetic's own constructor
            mp.setattr(Fraction, "_from_coprime_ints",
                       classmethod(counting(Fraction._from_coprime_ints.__func__)))
        mp.setattr(GaussianRational, "__init__", counting(GaussianRational.__init__))
        for module in (holomult.scalars, holomult.poly):
            mp.setattr(module, "_make", counting(module._make))
        yield built


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(pairs(), st.integers(1, 3))
def test_ring_operations_build_no_scalars(pq, k):
    p, q = (-(-x) for x in pq)  # fresh polynomials whose views are not built
    assert p._view is None and q._view is None
    k = min(k, p.nvars)
    with counting_constructions() as built:
        product, total = p * q, p + q
        p.diff(k), p - q, p.scale(3), p ** 2
        if not q.is_zero():
            product.divide_exact(q)
        if type(p) is CPoly:
            p.conjugate(), p.realify_split()
        assert built == []
        # the counter sees the views being built
        if product or total:
            product.terms, total.terms
            assert built
