import random
from fractions import Fraction

import pytest

from holomult.poly import CPoly, RPoly, poly_summary
from holomult.scalars import GaussianRational

from conftest import random_cpoly, random_nonzero_cpoly


def zvars(n):
    return [CPoly.var(n, k) for k in range(1, n + 1)]


def test_difference_of_squares():
    (z1,) = zvars(1)
    i = CPoly.const(1, GaussianRational(0, 1))
    product = (z1 + i) * (z1 - i)
    assert product == z1 * z1 + 1


def test_additive_identity():
    rng = random.Random(1)
    for _ in range(20):
        p = random_cpoly(rng, 3)
        assert CPoly.zero(3) + p == p


def test_monomial_product_matches_exponent_sum():
    # naive oracle: multiply term by term, adding exponents
    z1, z2, z3 = zvars(3)
    left = z1 * z2
    right = z1 * z2 * z3
    product = left * right
    assert product == CPoly(3, {(2, 2, 1): 1})


def test_multiplication_agrees_with_pointwise_oracle():
    rng = random.Random(2)
    for _ in range(20):
        p = random_cpoly(rng, 2)
        q = random_cpoly(rng, 2)
        product = p * q
        for _ in range(4):
            point = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
            expected = p.evaluate(point) * q.evaluate(point)
            assert abs(product.evaluate(point) - expected) < 1e-9


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        CPoly.var(2, 1) + CPoly.var(3, 1)


def test_partial_derivative_power_rule():
    (z1,) = zvars(1)
    assert (z1 * z1).diff(1) == z1.scale(2)
    assert CPoly.const(1, 5).diff(1).is_zero()


def test_partial_derivative_bracket_entry():
    z1, z2, z3 = zvars(3)
    bracket = z1 * z3 - z2.scale(2)
    assert bracket.diff(3) == z1
    assert bracket.diff(2) == CPoly.const(3, -2)


def test_derivative_index_out_of_range():
    with pytest.raises(IndexError):
        CPoly.var(2, 1).diff(3)


def test_leibniz_randomized():
    rng = random.Random(3)
    for _ in range(50):
        p = random_cpoly(rng, 3)
        q = random_cpoly(rng, 3)
        k = rng.randint(1, 3)
        assert (p * q).diff(k) == p.diff(k) * q + p * q.diff(k)


def test_exact_divide_monomial():
    z1, z2, z3 = zvars(3)
    quotient = (z1 * z1 * z2).divide_exact(z1)
    assert quotient == z1 * z2


def test_exact_divide_factorization():
    (z1,) = zvars(1)
    one = CPoly.const(1, 1)
    quotient = (z1 * z1 - one).divide_exact(z1 - one)
    assert quotient == z1 + one


def test_exact_divide_detects_remainder():
    z1, z2 = (CPoly.var(2, k) for k in (1, 2))
    assert (z1 * z2 + 1).divide_exact(z1) is None


def test_exact_divide_multiply_back_randomized():
    rng = random.Random(4)
    for _ in range(40):
        q = random_nonzero_cpoly(rng, 2)
        d = random_nonzero_cpoly(rng, 2)
        product = q * d
        recovered = product.divide_exact(d)
        assert recovered is not None
        assert recovered * d == product


def test_divide_by_zero_polynomial():
    with pytest.raises(ZeroDivisionError):
        CPoly.var(2, 1).divide_exact(CPoly.zero(2))


def test_evaluate():
    (z1,) = zvars(1)
    assert abs((z1 * z1 + 1).evaluate([1j])) < 1e-15
    z1, z2, z3 = zvars(3)
    assert (z1 * z2 * z3).evaluate([1, 2, 3]) == pytest.approx(6)
    # hand arithmetic: 2^2 + 4*1*(-1) = 0
    p = z1 * z1 + (4 * z2) * z3
    assert p.evaluate([2, 1, -1]) == pytest.approx(0)


def test_evaluate_exact():
    z1, z2, z3 = zvars(3)
    p = z1 * z1 + (4 * z2) * z3
    assert p.evaluate_exact([2, 1, -1]) == GaussianRational(0)


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        CPoly.var(2, 1).evaluate([1.0])


def test_conjugate():
    (z1,) = zvars(1)
    i = GaussianRational(0, 1)
    p = z1.scale(i)
    assert p.conjugate() == z1.scale(-i)
    rng = random.Random(5)
    for _ in range(20):
        q = random_cpoly(rng, 2)
        assert q.conjugate().conjugate() == q
    real = z1.scale(Fraction(3, 2)) + 7
    assert real.conjugate() == real


def test_realify_split_basics():
    (z1,) = zvars(1)
    re, im = z1.realify_split()
    assert re == RPoly(2, {(1, 0): 1})
    assert im == RPoly(2, {(0, 1): 1})
    re2, im2 = (z1 * z1).realify_split()
    assert re2 == RPoly(2, {(2, 0): 1, (0, 2): -1})
    assert im2 == RPoly(2, {(1, 1): 2})


def test_realify_split_product_pattern():
    # z^i z^j -> (x_i x_j - y_i y_j) + i (x_i y_j + y_i x_j)
    z1, z2 = (CPoly.var(2, k) for k in (1, 2))
    re, im = (z1 * z2).realify_split()
    assert re == RPoly(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    assert im == RPoly(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1})


def test_realify_split_is_ring_homomorphism():
    rng = random.Random(6)
    for _ in range(30):
        p = random_cpoly(rng, 2)
        q = random_cpoly(rng, 2)
        pr, pi = p.realify_split()
        qr, qi = q.realify_split()
        prod_r, prod_i = (p * q).realify_split()
        assert prod_r == pr * qr - pi * qi
        assert prod_i == pr * qi + pi * qr


def test_format_round_trip_compatible_text():
    z1, z2, z3 = zvars(3)
    p = z1 * z3 - z2.scale(2)
    assert p.format() == "z1*z3 - 2*z2"
    assert poly_summary(CPoly.zero(3)) == "0"


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_format_takes_one_name_per_variable(ring):
    x1, x2 = ring.var(2, 1), ring.var(2, 2)
    assert (x1 * x2).format(["a", "b"]) == "a*b"
    for names in (["a"], ["a", "b", "c"]):
        for p in (x2, x1 * x2, ring.zero(2)):
            with pytest.raises(ValueError, match="variable names"):
                p.format(names)


def test_canonical_order_is_graded_lex():
    z1, z2 = (CPoly.var(2, k) for k in (1, 2))
    p = z2 + z1 * z1 + z1 * z2
    monos = [m for m, _ in p.sorted_terms()]
    assert monos == [(2, 0), (1, 1), (0, 1)]


def test_rpoly_rejects_complex_coefficients():
    with pytest.raises(ValueError):
        RPoly(1, {(1,): GaussianRational(0, 1)})


def test_rpoly_rejects_float_coefficients():
    with pytest.raises(TypeError):
        RPoly(1, {(1,): 0.5})
