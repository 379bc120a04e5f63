"""Differential test of `format_poly`, which writes coefficients from the integer numerators.

The reference below is the formatter it replaced: it reads the `terms`
view of `Fraction` and `GaussianRational` coefficients and prints each one
through `str`.  Both must give the same text for every polynomial, including
numerators longer than the interpreter's int-to-string limit.
"""

import random
import sys
from fractions import Fraction

import pytest

from holomult.poly import CPoly, RPoly, default_xy_names, default_z_names, format_poly
from holomult.scalars import GaussianRational, rational_text

# -- the reference -------------------------------------------------------------------------


def ref_coeff(coeff):
    if isinstance(coeff, GaussianRational):
        if coeff.im == 0:
            return rational_text(coeff.re)
        if coeff.re == 0:
            if coeff.im == 1:
                return "i"
            if coeff.im == -1:
                return "-i"
            return f"{rational_text(coeff.im)}*i"
        return f"({coeff})"
    return rational_text(coeff)


def ref_format(p, names):
    if p.is_zero():
        return "0"
    pieces = []
    for mono, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"({name})^{e}")
        ctxt = ref_coeff(coeff)
        if not factors:
            body = ctxt
        elif ctxt == "1":
            body = "*".join(factors)
        elif ctxt == "-1":
            body = "-" + "*".join(factors)
        else:
            body = "*".join([ctxt] + factors)
        pieces.append(body)
    out = pieces[0]
    for body in pieces[1:]:
        out += " - " + body[1:] if body.startswith("-") else " + " + body
    return out


def same(p):
    names = default_z_names(p.nvars) if isinstance(p, CPoly) else default_xy_names(p.nvars)
    # a fresh copy through the public constructor, so the reference builds its own view
    fresh = type(p)(p.nvars, p.terms)
    text = format_poly(p, names)
    assert text == ref_format(fresh, names)
    assert text == p.format()
    return text


# -- coefficients ------------------------------------------------------------------------------

G = GaussianRational
HALF = Fraction(1, 2)
SPECIAL = [1, -1, G(0, 1), G(0, -1), G(2, 1), G(2, -1), G(-3, 1), G(-3, -1), G(1, 1), G(-1, -1),
           HALF, -HALF, G(0, HALF), G(0, -HALF), G(HALF, Fraction(-7, 3)), G(Fraction(5, 6), 4),
           G(0, 3), G(0, -3), Fraction(-12, 35), 7]


@pytest.mark.parametrize("coeff", SPECIAL, ids=str)
def test_each_special_coefficient(coeff):
    for mono in [(0, 0), (1, 0), (0, 2), (3, 1)]:
        text = same(CPoly(2, {mono: coeff}))
        if mono == (0, 0):
            assert text == ref_coeff(G.coerce(coeff))
        # a second term shows the coefficient after a joining sign
        same(CPoly(2, {(4, 4): 1, mono: coeff}))


def test_each_special_coefficient_on_shared_denominators():
    # the coefficients share one denominator in storage, and each is reduced on its own
    p = CPoly(2, {(k, 1): c for k, c in enumerate(SPECIAL)})
    assert p._den > 1
    same(p)
    same(p.conjugate())
    same(-p)


def test_real_polynomials():
    p = RPoly(4, {(0, 0, 0, 0): Fraction(-3, 4), (1, 0, 0, 0): 1, (0, 2, 0, 1): -1,
                  (1, 1, 1, 1): Fraction(5, 6), (0, 0, 3, 0): Fraction(-2, 3)})
    same(p)
    assert same(RPoly(3, {(1, 0, 2): -1, (0, 1, 0): 2})) == "-u1*(u3)^2 + 2*u2"
    assert same(RPoly.zero(2)) == "0"
    assert same(CPoly.zero(0)) == "0"
    assert same(RPoly.const(0, Fraction(-1, 2))) == "-1/2"


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_random_polynomials(ring):
    rng = random.Random(2201 if ring is CPoly else 2202)
    for _ in range(300):
        nvars = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = tuple(rng.randint(0, 3) for _ in range(nvars))
            re = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 12]))
            im = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 5]))
            terms[mono] = G(re, im) if ring is CPoly and rng.random() < 0.6 else re
        p = ring(nvars, terms)
        same(p)
        same(p * p)
        same(p.scale(Fraction(7, 9)))


def test_numerators_longer_than_the_int_string_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    big = 7 * 10 ** (limit + 20) + 1
    for coeff in [big, -big, Fraction(big, 3), Fraction(3, big), G(big, 1), G(1, -big),
                  G(Fraction(big, 11), Fraction(-5, big)), G(0, big), G(0, Fraction(-1, big))]:
        same(CPoly(2, {(1, 0): coeff, (0, 2): 1}))
        same(CPoly(1, {(0,): coeff}))
    same(RPoly(2, {(1, 1): Fraction(-big, 13), (0, 0): 1}))
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() in (0, limit)
