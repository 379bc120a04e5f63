"""The real Jacobi test answers on C^n, with the R^{2n} route as reference.

`realify._complexify(q)` recovers the holomorphic P whose realification has
q as its real half, P^{jk} = 4 (q^{x_j x_k} + i q^{x_j y_k}) at y = 0, and
keeps it only after an exact round trip.  `is_real_poisson(q)` is then
`is_poisson(P)`, since J(Re P) = Re J(P)/2.  On `None` it takes the direct
route on R^{2n}, which these tests call by hand as the reference:
`poisson.is_poisson(q)`.  Since Im P = Re(-iP), the imaginary half
complexifies to -iP.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from holomult.calculus import Multivector
from holomult.poisson import Bivector, is_poisson
from holomult.poly import CPoly, RPoly
from holomult.realify import RealBivector, _complexify, _realify, is_real_poisson, realify_poisson
from holomult.scalars import GaussianRational

from conftest import random_cpoly
from test_realify_identities import SETTINGS, bivectors

I = GaussianRational(0, 1)


def _sign(order):
    """The parity of a permutation given as a tuple of distinct integers."""
    return (-1) ** sum(a > b for a, b in combinations(order, 2))


def jacobian_bivector(n, casimirs):
    """{f, g} = det d(f, g, C_1, ..., C_{n-2}) / d(z_1, ..., z_n): Poisson on C^n."""
    ring = CPoly
    grads = [[c.diff(k) for k in range(1, n + 1)] for c in casimirs]
    comps = {}
    for i, j in combinations(range(1, n + 1), 2):
        rest = [k for k in range(1, n + 1) if k not in (i, j)]
        entry = ring.zero(n)
        for perm in permutations(rest):
            term = ring.const(n, _sign((i, j, *perm)))
            for grad, k in zip(grads, perm):
                term = term * grad[k - 1]
            entry = entry + term
        comps[(i, j)] = entry
    return Bivector(n, comps)


def generic_bivector(rng, n):
    return Bivector(n, {key: random_cpoly(rng, n, max_degree=2, max_terms=3)
                        for key in combinations(range(1, n + 1), 2)})


def drawn_bivectors():
    rng = random.Random(20261020)
    cases = []
    for n, count in ((2, 8), (3, 8), (4, 5)):
        for _ in range(count):
            cases.append(("generic", generic_bivector(rng, n)))
            casimirs = [random_cpoly(rng, n, max_degree=2, max_terms=3) for _ in range(n - 2)]
            cases.append(("jacobian", jacobian_bivector(n, casimirs)))
    return cases


CASES = drawn_bivectors()


def test_the_draws_cover_both_verdicts_on_every_dimension():
    for n in (3, 4):
        verdicts = {kind: {is_poisson(p) for k, p in CASES if k == kind and p.n == n}
                    for kind in ("generic", "jacobian")}
        assert verdicts["jacobian"] == {True}
        assert False in verdicts["generic"]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_both_halves_complexify_and_answer_as_the_direct_route(index):
    kind, p = CASES[index]
    q_re, q_im = realify_poisson(p)
    # Im P = Re(-iP): the imaginary half recovers -iP
    assert _complexify(q_re) == p
    assert _complexify(q_im) == Bivector(p.n, {k: v.scale(-I) for k, v in p.comps.items()})
    for q in (q_re, q_im):
        verdict = is_real_poisson(q)
        assert type(verdict) is bool
        assert verdict == is_poisson(RealBivector(q.n, q.comps)) == is_poisson(p)


@pytest.mark.parametrize("n", [2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_randomised_halves_answer_as_the_direct_route(n, data):
    p = data.draw(bivectors(n))
    q_re, q_im = realify_poisson(p)
    assert _complexify(q_re) == p
    for q in (q_re, q_im):
        assert is_real_poisson(q) is is_poisson(RealBivector(q.n, q.comps))


def _base():
    """Re P of a holomorphic bivector on C^2 with two entries that depend on z."""
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    return realify_poisson(Bivector(2, {(1, 2): z1 * z2 + (1 + 2 * I) * z1 * z1 - 3}))[0]


def _edit(q, key, delta):
    comps = dict(q.comps)
    comps[key] = comps.get(key, RPoly.zero(q.n)) + delta
    return RealBivector(q.n, comps)


def test_the_base_case_complexifies():
    assert _complexify(_base()) is not None


@pytest.mark.parametrize("key", [(1, 2), (1, 4), (2, 3), (3, 4)])
def test_one_changed_coefficient_is_refused(key):
    q = _edit(_base(), key, RPoly.const(4, 1))
    assert _complexify(q) is None
    assert is_real_poisson(q) == is_poisson(RealBivector(4, q.comps))


def test_an_entry_depending_on_y_is_refused():
    # y1 is added to q^{x_1 x_2} and subtracted from q^{y_1 y_2}, as in Re of a bivector; recovery drops it
    y1 = RPoly.var(4, 3)
    q = _edit(_edit(_base(), (1, 2), y1), (3, 4), -y1)
    assert _complexify(q) is None


def test_the_real_part_of_a_non_holomorphic_bivector_is_refused():
    # the realification rule applied to conj(z1) = x1 - i y1, which is not holomorphic
    x1, y1 = RPoly.var(4, 1), RPoly.var(4, 3)
    q = _realify(2, 2, {(1, 2): (x1, -y1)}, RealBivector, 1)[0]
    assert q.comps[(1, 2)] == x1.scale(Fraction(1, 4))
    assert _complexify(q) is None
    assert is_real_poisson(q) == is_poisson(RealBivector(4, q.comps))


@pytest.mark.parametrize("q", [
    RealBivector(3, {(1, 2): RPoly.var(3, 3)}),  # an odd dimension
    RealBivector(2, {(1, 2): RPoly.var(2, 1)}),  # R^2
    Multivector(4, 2, {(1, 2): RPoly.var(4, 1), (3, 4): -RPoly.var(4, 1)}, RPoly),  # not a bivector
    Bivector(4, {(1, 2): CPoly.var(4, 1)}),  # the complex ring
], ids=["odd", "R2", "multivector", "cpoly"])
def test_only_a_real_bivector_on_even_dimension_four_or_more_qualifies(q):
    assert _complexify(q) is None
