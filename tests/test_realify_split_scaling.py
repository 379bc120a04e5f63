"""`realify_split` expands only the nonzero exponents of each monomial, so a
one-term polynomial in many variables splits in time linear in their number.
"""

import time

from holomult.poly import CPoly, RPoly


def test_a_coordinate_in_twenty_thousand_variables_splits_quickly():
    n = 20_000
    z1 = CPoly.var(n, 1)
    start = time.perf_counter()
    split = z1.realify_split()
    elapsed = time.perf_counter() - start
    assert split == (RPoly.var(2 * n, 1), RPoly.var(2 * n, n + 1))
    assert elapsed < 1.0


def test_the_split_of_a_sparse_monomial_keeps_every_other_exponent_zero():
    n = 5
    z = [CPoly.var(n, k) for k in range(1, n + 1)]
    x = [RPoly.var(2 * n, k) for k in range(1, n + 1)]
    y = [RPoly.var(2 * n, n + k) for k in range(1, n + 1)]
    # (x2 + i y2)^2 (x5 + i y5) = (x2^2 - y2^2 + 2i x2 y2)(x5 + i y5)
    re, im = (z[1] * z[1] * z[4]).realify_split()
    assert re == (x[1] * x[1] - y[1] * y[1]) * x[4] - (x[1] * y[1]).scale(2) * y[4]
    assert im == (x[1] * x[1] - y[1] * y[1]) * y[4] + (x[1] * y[1]).scale(2) * x[4]
