"""Differential tests of the polynomial kernel against a naive reference.

The reference below keeps coefficients as plain (re, im) pairs of Fractions
in ordinary dicts, does every ring operation by the schoolbook formula and
builds its result through the validating public constructor.  The kernel's
operations build their results through the trusted internal constructor and
the allocation-light scalar arithmetic, so every result is compared with the
reference term by term and checked for clean terms: nonzero coefficients of
the ring's own type, with Fraction (never int) parts.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holomult.poly import CPoly, RPoly
from holomult.scalars import GaussianRational

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

small = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def polys(draw, ring, nvars, max_terms=5):
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.dictionaries(monos, st.tuples(small, small), max_size=max_terms))
    if ring is RPoly:
        terms = {m: (re, Fraction(0)) for m, (re, _) in terms.items()}
    return build(ring, nvars, terms)


@st.composite
def pairs(draw, max_terms=5):
    ring = draw(st.sampled_from([CPoly, RPoly]))
    nvars = draw(st.integers(1, 4))
    return draw(polys(ring, nvars, max_terms)), draw(polys(ring, nvars, max_terms))


# -- the naive reference -------------------------------------------------------


def parts(p):
    """{monomial: (re, im)} with Fraction parts, whatever the ring."""
    out = {}
    for mono, c in p.terms.items():
        out[mono] = (c.re, c.im) if isinstance(c, GaussianRational) else (c, Fraction(0))
    return out


def build(ring, nvars, terms):
    """Public, validating construction from {monomial: (re, im)}."""
    if ring is CPoly:
        return CPoly(nvars, {m: GaussianRational(re, im) for m, (re, im) in terms.items()})
    assert all(im == 0 for _, im in terms.values())
    return RPoly(nvars, {m: re for m, (re, _) in terms.items()})


def accumulate(out, mono, value):
    re, im = out.get(mono, (Fraction(0), Fraction(0)))
    out[mono] = (re + value[0], im + value[1])


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ref_add(p, q, sign=1):
    out = {}
    for mono, c in parts(p).items():
        accumulate(out, mono, c)
    for mono, (re, im) in parts(q).items():
        accumulate(out, mono, (sign * re, sign * im))
    return build(type(p), p.nvars, out)


def ref_mul(p, q):
    out = {}
    for m1, c1 in parts(p).items():
        for m2, c2 in parts(q).items():
            accumulate(out, tuple(a + b for a, b in zip(m1, m2)), cmul(c1, c2))
    return build(type(p), p.nvars, out)


def ref_pow(p, k):
    out = build(type(p), p.nvars, {(0,) * p.nvars: (Fraction(1), Fraction(0))})
    for _ in range(k):
        out = ref_mul(out, p)
    return out


def ref_scale(p, value):
    return build(type(p), p.nvars, {m: cmul(c, value) for m, c in parts(p).items()})


def ref_diff(p, k):
    out = {}
    for mono, (re, im) in parts(p).items():
        e = mono[k - 1]
        if e:
            lowered = mono[:k - 1] + (e - 1,) + mono[k:]
            accumulate(out, lowered, (re * e, im * e))
    return build(type(p), p.nvars, out)


def ref_realify(p):
    """z_k = x_k + i y_k by the binomial theorem, one variable at a time."""
    n = p.nvars
    out = {}
    for mono, c in parts(p).items():
        expanded = {(0,) * (2 * n): c}
        for k, e in enumerate(mono):
            nxt = {}
            for m, value in expanded.items():
                for j in range(e + 1):
                    # C(e, j) x_k^(e-j) (i y_k)^j
                    power_of_i = [(1, 0), (0, 1), (-1, 0), (0, -1)][j % 4]
                    factor = (comb(e, j) * power_of_i[0], comb(e, j) * power_of_i[1])
                    m2 = list(m)
                    m2[k] += e - j
                    m2[n + k] += j
                    accumulate(nxt, tuple(m2), cmul(value, factor))
            expanded = nxt
        for m, value in expanded.items():
            accumulate(out, m, value)
    zero = Fraction(0)
    re = build(RPoly, 2 * n, {m: (v[0], zero) for m, v in out.items()})
    im = build(RPoly, 2 * n, {m: (v[1], zero) for m, v in out.items()})
    return re, im


# -- checks ----------------------------------------------------------------------


def assert_clean(p):
    for mono, c in p.terms.items():
        assert len(mono) == p.nvars and all(type(e) is int and e >= 0 for e in mono)
        assert c
        if type(p) is CPoly:
            assert type(c) is GaussianRational
            assert type(c.re) is Fraction and type(c.im) is Fraction
        else:
            assert type(c) is Fraction


def assert_same(got, expected):
    assert type(got) is type(expected) and got.nvars == expected.nvars
    assert got.terms == expected.terms
    assert_clean(got)


# -- differential tests ------------------------------------------------------------


@SETTINGS
@given(pairs())
def test_ring_operations_match_the_reference(pq):
    p, q = pq
    assert_same(p + q, ref_add(p, q))
    assert_same(p - q, ref_add(p, q, sign=-1))
    assert_same(-p, ref_add(type(p).zero(p.nvars), p, sign=-1))
    assert_same(p * q, ref_mul(p, q))
    # the cross terms of (p + q)(p - q) cancel, so zeros must be dropped
    assert_same((p + q) * (p - q), ref_mul(ref_add(p, q), ref_add(p, q, sign=-1)))
    assert_same(p + p.scale(-1), type(p).zero(p.nvars))


@SETTINGS
@given(pairs(max_terms=3), st.integers(0, 3))
def test_powers_match_the_reference(pq, k):
    p, _ = pq
    assert_same(p ** k, ref_pow(p, k))


@SETTINGS
@given(pairs(), small, small, st.integers(1, 4))
def test_scale_and_diff_match_the_reference(pq, re, im, k):
    p, _ = pq
    value = (re, im) if type(p) is CPoly else (re, Fraction(0))
    scalar = GaussianRational(*value) if type(p) is CPoly else re
    assert_same(p.scale(scalar), ref_scale(p, value))
    assert_same(p.scale(3), ref_scale(p, (Fraction(3), Fraction(0))))
    k = min(k, p.nvars)
    assert_same(p.diff(k), ref_diff(p, k))


@SETTINGS
@given(pairs(max_terms=4))
def test_divide_exact_recovers_a_known_factor(pq):
    p, q = pq
    if q.is_zero():
        return
    product = ref_mul(p, q)
    quotient = product.divide_exact(q)
    assert quotient is not None
    assert_same(quotient, p)


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: polys(CPoly, n)))
def test_realify_split_matches_the_reference(p):
    re, im = p.realify_split()
    ref_re, ref_im = ref_realify(p)
    assert_same(re, ref_re)
    assert_same(im, ref_im)
    assert_same(p.conjugate(), build(CPoly, p.nvars, {m: (a, -b) for m, (a, b) in parts(p).items()}))


def test_mixed_rings_are_rejected():
    c, r = CPoly.var(2, 1), RPoly.var(2, 1)
    for op in (lambda: c + r, lambda: r + c, lambda: c * r, lambda: r * c, lambda: c - r):
        with pytest.raises(TypeError, match="ring mismatch"):
            op()
    with pytest.raises(TypeError, match="ring mismatch: CPoly vs RPoly"):
        c.divide_exact(r)


def test_public_constructor_still_validates():
    with pytest.raises(ValueError, match="wrong length"):
        CPoly(2, {(1,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        RPoly(2, {(1, -1): 1})
    with pytest.raises(TypeError):
        CPoly(1, {(1,): 0.5})
    with pytest.raises(ValueError, match="must be real"):
        RPoly(1, {(1,): GaussianRational(1, 1)})
    assert CPoly(1, {(1,): 1, (0,): 0}).terms == {(1,): GaussianRational(1)}
    assert type(CPoly(1, {(1,): 2}).terms[(1,)].re) is Fraction


# -- a seeded sample against sympy ----------------------------------------------------

sympy = pytest.importorskip("sympy")


def to_sympy(p, symbols):
    expr = sympy.Integer(0)
    for mono, (re, im) in parts(p).items():
        term = sympy.Rational(re.numerator, re.denominator) + sympy.I * sympy.Rational(im.numerator, im.denominator)
        for sym, e in zip(symbols, mono):
            term *= sym ** e
        expr += term
    return sympy.expand(expr)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(pairs(max_terms=4), st.integers(1, 4))
def test_sample_matches_sympy(pq, k):
    p, q = pq
    symbols = sympy.symbols(f"w1:{p.nvars + 1}")
    sp, sq = to_sympy(p, symbols), to_sympy(q, symbols)
    assert sympy.expand(to_sympy(p * q, symbols) - sp * sq) == 0
    assert sympy.expand(to_sympy(p - q, symbols) - (sp - sq)) == 0
    k = min(k, p.nvars)
    assert sympy.expand(to_sympy(p.diff(k), symbols) - sympy.diff(sp, symbols[k - 1])) == 0
    if type(p) is CPoly:
        xs = sympy.symbols(f"x1:{p.nvars + 1}", real=True)
        ys = sympy.symbols(f"y1:{p.nvars + 1}", real=True)
        re, im = p.realify_split()
        substituted = sympy.expand(sp.subs({z: x + sympy.I * y for z, x, y in zip(symbols, xs, ys)},
                                           simultaneous=True))
        xy = xs + ys
        assert sympy.expand(to_sympy(re, xy) - sympy.re(substituted)) == 0
        assert sympy.expand(to_sympy(im, xy) - sympy.im(substituted)) == 0
