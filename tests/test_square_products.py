"""A sum of squares convolves each unordered term pair once, with the pairwise sum as reference.

`_BasePoly._sum_squares(nvars, polys)` adds p * p over polys through
`poly._square`: each diagonal term once, each off-diagonal pair once at twice
the factor, and the cross part ar * ai into the imaginary numerators once at
twice the factor.  The reference is `_sum` over the (1, p, p) items, which
convolves every ordered pair through `_mul_into`.  Both must give identical
canonical storage, and the same insertion order of the numerator dicts (the
float evaluator sums the terms in that order).
"""

import random
from fractions import Fraction

import pytest

from holomult.poly import CPoly, RPoly, _pack
from holomult.realify import _sum_of_squares, modsq
from holomult.scalars import GaussianRational

from conftest import random_cpoly

I = GaussianRational(0, 1)


def storage(p):
    return p.nvars, p._den, list(p._re.items()), list(p._im.items())


def pairwise(polys):
    ring = type(polys[0])
    return ring._sum(polys[0].nvars, [(1, p, p) for p in polys])


def _c(*terms):
    return CPoly(2, dict(terms))


def _r(*terms):
    return RPoly(2, dict(terms))


CASES = {
    "zero-c": CPoly.zero(2),
    "zero-r": RPoly.zero(2),
    "one-term-c": _c(((1, 2), 2 + 3 * I)),
    "one-term-r": _r(((1, 2), Fraction(-5, 3))),
    "two-terms-c": _c(((1, 0), I), ((0, 1), Fraction(1, 2))),
    "two-terms-r": _r(((1, 0), 1), ((0, 1), -1)),
    "three-terms-c": _c(((1, 0), 1 + I), ((0, 1), Fraction(2, 3) * I), ((0, 0), Fraction(-1, 5))),
    "three-terms-r": _r(((2, 0), Fraction(1, 3)), ((1, 1), 2), ((0, 0), Fraction(-7, 2))),
    # 2ab + c^2 = 0 at z1^2 z2^2: the cross terms cancel
    "cancelling-c": _c(((2, 0), I), ((0, 2), 2 * I), ((1, 1), 2)),
    "cancelling-r": _r(((2, 0), 1), ((0, 2), -2), ((1, 1), 2)),
    "imaginary-c": _c(((2, 0), I), ((1, 1), -3 * I), ((0, 0), Fraction(1, 4) * I)),
}


@pytest.mark.parametrize("name", CASES)
def test_one_square_matches_the_pairwise_sum(name):
    p = CASES[name]
    square = type(p)._sum_squares(2, [p])
    assert storage(square) == storage(pairwise([p]))
    assert square == p * p
    assert type(square) is type(p)


SAME_RING = [(a, b) for a in CASES for b in CASES if type(CASES[a]) is type(CASES[b])]


@pytest.mark.parametrize("first, second", SAME_RING)
def test_two_squares_over_their_common_denominator(first, second):
    p, q = CASES[first], CASES[second]
    assert storage(type(p)._sum_squares(2, [p, q])) == storage(pairwise([p, q]))


def test_cancelling_cross_terms_leave_no_entry():
    for name in ("cancelling-c", "cancelling-r"):
        p = CASES[name]
        square = type(p)._sum_squares(2, [p])
        # storage keys are packed monomials: z1^4 is held, z1^2 z2^2 is not
        assert _pack((4, 0)) in square._re
        assert _pack((2, 2)) not in square._re and _pack((2, 2)) not in square._im
        assert (2, 2) not in square.terms


def test_no_polynomial_is_the_zero():
    assert storage(RPoly._sum_squares(3, [])) == storage(RPoly.zero(3))


def test_drawn_sums_of_squares_in_both_rings():
    rng = random.Random(20261020)
    for _ in range(60):
        p = random_cpoly(rng, 3, max_degree=3, max_terms=7)
        re, im = p.realify_split()
        assert storage(CPoly._sum_squares(3, [p])) == storage(pairwise([p]))
        assert storage(_sum_of_squares(re, im)) == storage(pairwise([re, im]))
        assert storage(modsq(p)) == storage(pairwise([re, im]))
