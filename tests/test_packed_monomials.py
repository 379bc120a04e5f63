"""Packed monomials against the tuple kernel they replaced.

The kernel stores each monomial in n variables as one int of n + 1 fields
of `_B` bits (the degree, then each exponent), so a product adds keys, a
partial subtracts one and int order is graded-lex order.  The reference
below is the earlier kernel on exponent tuples, kept verbatim in its
arithmetic: `*`, `_sum` with plain and product items, `diff`,
`divide_exact`, `realify_split` and `_sum_squares` must give the same
canonical storage, keys unpacked through the kernel's `_unpack`, in the
same dict order, in both rings.  The public constructor takes exponents
through `operator.index`, and `poly_summary` refuses a limit below 1.
"""

import random
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from operator import add, sub

import numpy as np
import pytest

from holomult.poly import CPoly, RPoly, _pack, _unpack, poly_summary
from holomult.scalars import GaussianRational

# -- the tuple kernel, as the reference --------------------------------------------
# a polynomial is (nvars, den, re, im) with exponent-tuple keys


def unpacked(p):
    """A polynomial's storage with its keys unpacked, dict order kept."""
    n = p.nvars
    return (n, p._den, {_unpack(m, n): v for m, v in p._re.items()},
            {_unpack(m, n): v for m, v in p._im.items()})


def listed(t):
    n, den, re, im = t
    return n, den, list(re.items()), list(im.items())


def t_reduced(n, re, im, den):
    g = gcd(den, *re.values(), *im.values())
    return n, den // g, {m: v // g for m, v in re.items()}, {m: v // g for m, v in im.items()}


def t_nonzero(part):
    return {m: v for m, v in part.items() if v}


def t_convolve(out, p, q, k):
    for m1, c1 in p.items():
        c1 *= k
        for m2, c2 in q.items():
            mono = tuple(map(add, m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2


def t_square(out, p, k):
    items = list(p.items())
    for idx, (m1, c1) in enumerate(items):
        mono = tuple(map(add, m1, m1))
        out[mono] = out.get(mono, 0) + c1 * c1 * k
        for m2, c2 in items[idx + 1:]:
            mono = tuple(map(add, m1, m2))
            out[mono] = out.get(mono, 0) + 2 * k * c1 * c2


def t_mul_into(re, im, a, b, k):
    ar, ai, br, bi = a[2], a[3], b[2], b[3]
    if ar and br:
        t_convolve(re, ar, br, k)
    if ai and bi:
        t_convolve(re, ai, bi, -k)
    if ar and bi:
        t_convolve(im, ar, bi, k)
    if ai and br:
        t_convolve(im, ai, br, k)


def t_sum(n, items):
    """The signed sum of (sign, p) and (sign, p, q) items over their common denominator."""
    items = [it for it in items if all(f[2] or f[3] for f in it[1:])]
    den = lcm(*(it[1][1] if len(it) == 2 else it[1][1] * it[2][1] for it in items))
    plain = [it for it in items if len(it) == 2]
    re, im = {}, {}
    if plain:
        s, p = plain[0]
        k = s * (den // p[1])
        re, im = {m: v * k for m, v in p[2].items()}, {m: v * k for m, v in p[3].items()}
        for s, p in plain[1:]:
            k = s * (den // p[1])
            for out, part in ((re, p[2]), (im, p[3])):
                for m, v in part.items():
                    acc = out.get(m, 0) + v * k
                    if acc:
                        out[m] = acc
                    else:
                        del out[m]
    for s, a, b in (it for it in items if len(it) == 3):
        t_mul_into(re, im, a, b, s * (den // (a[1] * b[1])))
    return t_reduced(n, t_nonzero(re), t_nonzero(im), den)


def t_diff(p, i):
    n, den, re, im = p

    def lower(part):
        return {m[:i] + (m[i] - 1,) + m[i + 1:]: v * m[i] for m, v in part.items() if m[i]}

    return t_reduced(n, lower(re), lower(im), den)


def t_lead(p):
    return max(chain(p[2], p[3]), key=lambda m: (sum(m), m))


def t_divide_exact(p, divisor):
    n = p[0]
    dm = t_lead(divisor)
    dr, di = divisor[2].get(dm, 0), divisor[3].get(dm, 0)
    norm, dden = dr * dr + di * di, divisor[1]
    queue, pieces = p, []
    while queue[2] or queue[3]:
        rm = t_lead(queue)
        diff = tuple(map(sub, rm, dm))
        if any(e < 0 for e in diff):
            return None
        r, s = queue[2].get(rm, 0), queue[3].get(rm, 0)
        qr, qi = (r * dr + s * di) * dden, (s * dr - r * di) * dden
        piece = t_reduced(n, {diff: qr} if qr else {}, {diff: qi} if qi else {}, queue[1] * norm)
        pieces.append((1, piece))
        queue = t_sum(n, [(1, queue), (-1, piece, divisor)])
    return t_sum(n, pieces)


def t_realify_split(p):
    n, den, re, im = p
    out_re, out_im = {}, {}
    zeros = (0,) * n
    for mono in chain(re, (m for m in im if m not in re)):
        r, s = re.get(mono, 0), im.get(mono, 0)
        expanded = [((), (), 1, 0)]
        done = 0
        for k, e in enumerate(mono):
            if e:
                run = zeros[:k - done]
                steps = [(run + (e - j,), run + (j,), comb(e, j), j) for j in range(e + 1)]
                expanded = [(xs + dx, ys + dy, c * b, q + j)
                            for xs, ys, c, q in expanded for dx, dy, b, j in steps]
                done = k + 1
        tail = zeros[:n - done]
        for xs, ys, c, q in expanded:
            a, b = ((r, s), (-s, r), (-r, -s), (s, -r))[q & 3]
            m = xs + tail + ys + tail
            if a:
                out_re[m] = c * a
            if b:
                out_im[m] = c * b
    return t_reduced(2 * n, out_re, {}, den), t_reduced(2 * n, out_im, {}, den)


def t_sum_squares(n, polys):
    polys = [p for p in polys if p[2] or p[3]]
    den = lcm(*(p[1] for p in polys))
    re, im = {}, {}
    for _, d, pr, pi in polys:
        k = (den // d) ** 2
        if pr:
            t_square(re, pr, k)
        if pi:
            t_square(re, pi, -k)
        if pr and pi:
            t_convolve(im, pr, pi, 2 * k)
    return t_reduced(n, t_nonzero(re), t_nonzero(im), den * den)


# -- generators ---------------------------------------------------------------------


def draw(rng, ring, n, max_degree=3, max_terms=5, huge=False):
    """A polynomial of `ring` with mixed denominators; `huge` adds exponents near 2^40."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(n)] += 1
        if huge and rng.random() < 0.5:
            mono[rng.randrange(n)] += rng.randint(1, 2**40)
        re = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 10**20]))
        im = Fraction(rng.randint(-5, 5), rng.choice([1, 2]))
        terms[tuple(mono)] = GaussianRational(re, im) if ring is CPoly else re
    return ring(n, terms)


def same(new, ref):
    assert listed(unpacked(new)) == listed(ref)


# -- the differential tests --------------------------------------------------------------


@pytest.mark.parametrize("ring", [CPoly, RPoly])
@pytest.mark.parametrize("huge", [False, True], ids=["small", "huge-exponents"])
def test_products_sums_and_partials_match_the_tuple_kernel(ring, huge):
    rng = random.Random(20261021 + huge)
    for _ in range(80):
        n = rng.randint(1, 4)
        p, q, r = (draw(rng, ring, n, huge=huge) for _ in range(3))
        tp, tq, tr = unpacked(p), unpacked(q), unpacked(r)
        same(p * q, t_sum(n, [(1, tp, tq)]))
        same(p + q - r, t_sum(n, [(1, tp), (1, tq), (-1, tr)]))
        items = [(1, p), (-1, q, r), (1, r, p), (-1, q)]
        same(ring._sum(n, items), t_sum(n, [(1, tp), (-1, tq, tr), (1, tr, tp), (-1, tq)]))
        for i in range(n):
            same(p.diff(i + 1), t_diff(tp, i))


@pytest.mark.parametrize("ring", [CPoly, RPoly])
@pytest.mark.parametrize("huge", [False, True], ids=["small", "huge-exponents"])
def test_division_matches_the_tuple_kernel(ring, huge):
    rng = random.Random(20261022 + huge)
    for _ in range(60):
        n = rng.randint(1, 4)
        p, q = draw(rng, ring, n, huge=huge), draw(rng, ring, n, max_terms=3, huge=huge)
        if not q:
            continue
        # a dividend that is not a multiple can take a step per monomial below its
        # leading one, so huge exponents divide exact multiples only
        for dividend in (p * q,) if huge else (p * q, p, p * q + ring.var(n, 1)):
            got, want = dividend.divide_exact(q), t_divide_exact(unpacked(dividend), unpacked(q))
            assert (got is None) == (want is None)
            if got is not None:
                same(got, want)


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_sums_of_squares_match_the_tuple_kernel(ring):
    rng = random.Random(20261023)
    for _ in range(60):
        n = rng.randint(1, 4)
        polys = [draw(rng, ring, n) for _ in range(rng.randint(0, 3))]
        same(ring._sum_squares(n, polys), t_sum_squares(n, [unpacked(p) for p in polys]))


def test_realify_split_matches_the_tuple_kernel():
    rng = random.Random(20261024)
    for _ in range(80):
        n = rng.randint(1, 4)
        p = draw(rng, CPoly, n, max_degree=4)
        (re, im), (want_re, want_im) = p.realify_split(), t_realify_split(unpacked(p))
        same(re, want_re)
        same(im, want_im)


def test_keys_order_as_graded_lex():
    rng = random.Random(20261025)
    for _ in range(200):
        n = rng.randint(1, 4)
        # 2 * 4 * 2^60 keeps every sum's degree below 2^_B
        a, b = (tuple(rng.choice([0, 1, 2, 2**40, 2**60]) for _ in range(n)) for _ in range(2))
        assert (_pack(a) < _pack(b)) == ((sum(a), a) < (sum(b), b))
        assert _unpack(_pack(a), n) == a
        assert _pack(a) + _pack(b) == _pack(tuple(map(add, a, b)))
    assert _pack(()) == 0 and _unpack(0, 0) == ()


# -- the public constructor's exponents -------------------------------------------------


@pytest.mark.parametrize("ring", [CPoly, RPoly])
@pytest.mark.parametrize("exponent", [2.5, 2.0, Fraction(1, 2), Fraction(2), "2", None, 1j],
                         ids=["float", "integral-float", "fraction", "integral-fraction", "str",
                              "none", "complex"])
def test_a_non_integer_exponent_is_refused(ring, exponent):
    with pytest.raises(TypeError, match="non-integer exponent"):
        ring(2, {(exponent, 0): 1})


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_bool_and_numpy_exponents_still_work(ring):
    p = ring(2, {(True, np.int64(2)): 3, (np.uint8(0), False): 1})
    want = ring(2, {(1, 2): 3, (0, 0): 1})
    assert p == want and hash(p) == hash(want)
    assert (p._re, p._im, p._den) == (want._re, want._im, want._den)
    assert p.format() == want.format()
    assert p.diff(1) == ring(2, {(0, 2): 3})
    assert p.evaluate([2.0, 3.0]) == want.evaluate([2.0, 3.0]) == 55


# -- poly_summary's limit ----------------------------------------------------------------


@pytest.mark.parametrize("limit", [0, -1])
def test_a_summary_limit_below_one_is_refused(limit):
    p = CPoly(2, {(2, 0): 1, (1, 1): 2, (0, 0): 3})
    with pytest.raises(ValueError, match="at least 1"):
        poly_summary(p, limit)
    with pytest.raises(ValueError, match="at least 1"):
        poly_summary(CPoly.zero(2), limit)


def test_a_summary_of_one_term():
    p = CPoly(2, {(2, 0): 1, (1, 1): 2, (0, 0): 3})
    assert poly_summary(p, 1) == "(z1)^2 + (2 more terms)"
    assert poly_summary(p, 3) == poly_summary(p, 5) == p.format()
