"""`p ** e` against repeated `*`.

`_BasePoly.__pow__` squares repeatedly without ever multiplying by the
constant 1, and raises a one-term polynomial as one term: its packed key
times e over its coefficient to the e.  Both must give the canonical storage
of the product p * p * ... * p (e factors, 1 for e = 0), for one-term and
multi-term polynomials with Gaussian and fractional coefficients, in both
rings.
"""

from fractions import Fraction

import pytest

import holomult.poly
from holomult.poly import _B, CPoly, RPoly
from holomult.scalars import GaussianRational

LIMIT_TEXT = f"polynomial degree exceeds the limit of {2**_B - 1}"


def storage(p):
    return type(p), p.nvars, p._re, p._im, p._den


def repeated(p, e):
    out = p.const(p.nvars, 1)
    for _ in range(e):
        out = out * p
    return out


C = GaussianRational
CASES = [
    CPoly(2, {(1, 0): 1}),
    CPoly(2, {(2, 3): C(Fraction(1, 2), Fraction(1, 2))}),
    CPoly(2, {(0, 1): C(0, Fraction(-2, 3))}),
    CPoly(2, {(1, 1): C(-3, 4)}),
    CPoly(2, {(0, 0): C(Fraction(5, 7), -1)}),
    CPoly(2, {(0, 0): 1}),
    CPoly.zero(2),
    CPoly(2, {(1, 0): C(1, 1), (0, 1): Fraction(-1, 2)}),
    CPoly(2, {(2, 0): C(0, 1), (0, 0): 3, (1, 1): C(Fraction(2, 3), -1)}),
    CPoly(3, {(1, 0, 0): 1, (0, 1, 0): C(0, 1), (0, 0, 1): Fraction(1, 3), (0, 0, 0): -2}),
    RPoly(2, {(1, 0): Fraction(-3, 2)}),
    RPoly(2, {(3, 1): 2}),
    RPoly(2, {(0, 0): Fraction(-1, 4)}),
    RPoly.zero(2),
    RPoly(2, {(1, 0): Fraction(1, 2), (0, 1): -1}),
    RPoly(3, {(2, 0, 1): Fraction(2, 5), (0, 1, 0): 3, (0, 0, 0): -1}),
]


@pytest.mark.parametrize("p", CASES, ids=repr)
def test_a_power_is_repeated_multiplication(p):
    for e in range(13):
        assert storage(p ** e) == storage(repeated(p, e)), e


def test_a_one_term_power_keeps_the_degree_limit():
    for ring in (CPoly, RPoly):
        z1 = ring.var(2, 1)
        high = (z1 ** (2**32)) ** (2**31)
        assert high.leading()[0] == (2**63, 0)
        assert (z1 ** (2**_B - 1)).leading()[0] == (2**_B - 1, 0)
        for base, e in ((high, 2), (z1, 2**_B), (ring(2, {(2**62, 2**62): 3}), 2)):
            with pytest.raises(ValueError, match=LIMIT_TEXT):
                base ** e


def test_a_power_refuses_a_bad_exponent():
    for e in (-1, 1.0, Fraction(2)):
        with pytest.raises(ValueError, match="nonnegative integer exponents"):
            CPoly.var(1, 1) ** e


def test_a_power_never_multiplies_by_one(monkeypatch):
    operands = []
    original = holomult.poly._mul_into

    def recording(re, im, a, b, k):
        operands.append((a, b))
        return original(re, im, a, b, k)

    monkeypatch.setattr(holomult.poly, "_mul_into", recording)
    for p in CASES:
        one = p.const(p.nvars, 1)
        for e in range(13):
            operands.clear()
            p ** e
            assert all(a != one and b != one for a, b in operands)
            if len(p.terms) <= 1:
                assert operands == []
            else:  # one square per bit below the top, one product per further set bit
                assert len(operands) == max(e.bit_length() - 1, 0) + max(bin(e).count("1") - 1, 0)
