"""The identity behind the componentwise exactness route.

For l outside a triple (i, j, k), the cyclic triple product
P^{li}P^{jk} + P^{lj}P^{ki} + P^{lk}P^{ij} is the Pfaffian of the 4-set
{l, i, j, k} times the sign of sorting (l, i, j, k).  `_triple_divergence_zero`
sums l-partials of these signed Pfaffians, so the identity is checked here on
its own: each triple product is built with `component()`, `*` and `+`, and
compared in canonical storage with the signed `poisson._pfaffian` of the
sorted 4-set, on seeded skew bivectors over C^4..C^6 in both rings.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from holomult.poisson import Bivector, _pfaffian, _triple_divergence_zero, pfaffian4
from holomult.poly import CPoly, RPoly
from holomult.realify import RealBivector
from holomult.scalars import GaussianRational

KINDS = {CPoly: Bivector, RPoly: RealBivector}


def random_bivector(ring, n, rng, density=0.8):
    def coeff():
        re = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        if ring is CPoly and rng.random() < 0.4:
            return GaussianRational(re, rng.randint(-3, 3))
        return re

    comps = {}
    for key in combinations(range(1, n + 1), 2):
        if rng.random() < density:
            monos = {tuple(rng.randint(0, 2) for _ in range(n)): coeff() for _ in range(rng.randint(1, 3))}
            comps[key] = ring(n, monos)
    return KINDS[ring](n, comps)


def storage(p):
    return p._re, p._im, p._den


def sorting_sign(seq):
    return (-1) ** sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])


@pytest.mark.parametrize("ring", [CPoly, RPoly])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_each_cyclic_triple_product_is_a_signed_pfaffian(ring, n):
    rng = random.Random(1000 * n + (ring is CPoly))
    for _ in range(4):
        p = random_bivector(ring, n, rng)
        c = p.component
        for i, j, k in combinations(range(1, n + 1), 3):
            for l in range(1, n + 1):
                if l in (i, j, k):
                    continue
                cyclic = c(l, i) * c(j, k) + c(l, j) * c(k, i) + c(l, k) * c(i, j)
                signed = _pfaffian(p, tuple(sorted((l, i, j, k))))
                if sorting_sign((l, i, j, k)) < 0:
                    signed = -signed
                assert type(cyclic) is ring and type(signed) is ring
                assert storage(cyclic) == storage(signed)


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_pfaffian4_is_the_pfaffian_of_the_full_set(ring):
    rng = random.Random(7)
    for _ in range(5):
        p = random_bivector(ring, 4, rng, density=0.6)
        c = p.component
        expected = c(1, 2) * c(3, 4) - c(1, 3) * c(2, 4) + c(1, 4) * c(2, 3)
        assert storage(pfaffian4(p)) == storage(expected)


def test_the_route_needs_the_sign_of_each_l():
    # triple (1, 2, 4): d/dz3 Pf(1234) = 1 and d/dz5 Pf(1245) = 1 cancel only at opposite signs
    z3, z5 = CPoly.var(5, 3), CPoly.var(5, 5)
    p = Bivector(5, {(1, 2): CPoly.const(5, 1), (3, 4): z3 + z5, (4, 5): z3 + z5})
    assert _triple_divergence_zero(p)
    assert not _triple_divergence_zero(Bivector(5, {(1, 2): CPoly.const(5, 1), (3, 4): z3 + z5,
                                                    (4, 5): z3 - z5}))


def test_the_route_separates_a_unimodular_non_poisson_bivector():
    z1, z3 = CPoly.var(4, 1), CPoly.var(4, 3)
    assert not _triple_divergence_zero(Bivector(4, {(1, 2): z3, (3, 4): z1}))
    assert _triple_divergence_zero(Bivector(4, {(1, 2): z3}))
