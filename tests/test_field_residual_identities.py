"""The paper's multiplier characterizations as exact identities on failing inputs.

`metric.gradient_lm_residual`, `poisson.hamiltonian_lm_residual` and
`multipliers.divergence_type_check` are each the last-multiplier residual of
one field, X(alpha) + alpha div X.  Here they are compared with the paper's
other spellings of the same residual, on random inputs that mostly fail:

- Hamiltonian fields, on bivectors that are *not* Poisson, in both rings:
  X_f(a) + a div X_f == a Z_mod(f) - Z_a(f), since div X_f = Z_mod(f) and
  X_f(a) = -Z_a(f) for every skew P;
- gradient fields of metrics with square determinant:
  grad f(a) + a div grad f == g(grad f, grad a) + a laplacian(f);
- divergence-type fields: the check is `is_last_multiplier` of div W;
- the realified Hamiltonian and self-multiplier identities of
  `tests/test_realify.py`, on random non-Poisson P.

A sign slip in the shared residual shows as a nonzero difference here, not
as zero against zero.
"""

from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from holomult.calculus import VectorField, VolumeForm, apply_field, divergence
from holomult.metric import HoloMetric, gradient, gradient_lm_residual, laplacian
from holomult.multipliers import divergence_type_check, is_last_multiplier
from holomult.poisson import (
    Bivector, hamiltonian_field, hamiltonian_lm_residual, jacobiator, modular_field,
    poisson_bracket, self_multiplier_residual,
)
from holomult.poly import CPoly, RPoly
from holomult.realify import (
    RealBivector, conj_product_split, conj_scaled_imag_field, conj_scaled_real_field, modsq,
    real_hamiltonian, real_self_residual, realify_poisson,
)
from holomult.scalars import GaussianRational

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))

small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2]))
gaussian = st.builds(GaussianRational, small, small)
BIVECTOR_OF_RING = {CPoly: Bivector, RPoly: RealBivector}


@st.composite
def quadratics(draw, n, ring=CPoly, within=None):
    """A polynomial of degree at most 2 on n variables over `ring`, in the
    1-based variables `within` (all by default)."""
    allowed = range(n) if within is None else [k - 1 for k in within]
    # a = b = -1 is the constant, a = -1 <= b a linear and 0 <= a <= b a quadratic monomial
    monos = [tuple((k == a) + (k == b) for k in range(n))
             for a in [-1, *allowed] for b in allowed if a <= b] + [(0,) * n]
    coeffs = gaussian if ring is CPoly else small
    return ring(n, draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=4)))


@st.composite
def bivectors(draw, n, ring=CPoly):
    keys = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    stored = draw(st.lists(st.sampled_from(keys), min_size=2, unique=True, max_size=len(keys)))
    return BIVECTOR_OF_RING[ring](n, {key: draw(quadratics(n, ring)) for key in stored})


def cleared_hamiltonian_residual(a, f, p, omega):
    """The paper's cleared form a Z_mod(f) - Z_a(f), written with apply_field."""
    return a * apply_field(modular_field(p, omega), f) - apply_field(hamiltonian_field(a, p), f)


@pytest.mark.parametrize("ring", [CPoly, RPoly])
@pytest.mark.parametrize("n", [3, 4, 5])
@SETTINGS
@given(data=st.data())
def test_hamiltonian_residual_is_the_cleared_modular_form_off_poisson(n, ring, data):
    p = data.draw(bivectors(n, ring))
    assume(jacobiator(p))
    a, f = data.draw(quadratics(n, ring)), data.draw(quadratics(n, ring))
    omega = VolumeForm(n)
    # a nonzero a * div X_f is what tells the sign of the divergence term
    assume(a * divergence(hamiltonian_field(f, p), omega))
    assert hamiltonian_lm_residual(a, f, p, omega) == cleared_hamiltonian_residual(a, f, p, omega)


@pytest.mark.parametrize("n", [4, 5])
@SETTINGS
@given(data=st.data())
def test_the_bracket_form_agrees_on_unimodular_non_poisson_bivectors(n, data):
    # P^{ij} free of z^i and z^j has zero modular field, so h = 0 generates it
    # (on C^3 such a P is always Poisson)
    keys = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    p = Bivector(n, {key: data.draw(quadratics(n, within=[k for k in range(1, n + 1) if k not in key]))
                     for key in keys})
    assume(jacobiator(p))
    a, f = data.draw(quadratics(n)), data.draw(quadratics(n))
    residual = hamiltonian_lm_residual(a, f, p, VolumeForm(n), h=CPoly.zero(n))
    assert residual == -poisson_bracket(a, f, p)


@SETTINGS
@given(a=gaussian, b=gaussian, c=gaussian, r=quadratics(3, within=[1]), alpha=quadratics(3),
       f=quadratics(3))
def test_the_bracket_form_agrees_with_a_nonzero_generator(a, b, c, r, alpha, f):
    # P^{12} = a, P^{13} = b, P^{23} = c (a z3 - b z2) + r(z1): Z_mod = c (0, a, b) = X_{c z1}
    z2, z3 = CPoly.var(3, 2), CPoly.var(3, 3)
    p = Bivector(3, {(1, 2): CPoly.const(3, a), (1, 3): CPoly.const(3, b),
                     (2, 3): (z3.scale(a) - z2.scale(b)).scale(c) + r})
    h = CPoly.var(3, 1).scale(c)
    residual = hamiltonian_lm_residual(alpha, f, p, VolumeForm(3), h=h)
    assert residual == alpha * poisson_bracket(h, f, p) - poisson_bracket(alpha, f, p)
    assert residual == cleared_hamiltonian_residual(alpha, f, p, VolumeForm(3))


@st.composite
def metrics(draw, n):
    """g = A^T A for a nonsingular Gaussian A: symmetric, determinant det(A)^2."""
    a = [[draw(gaussian) for _ in range(n)] for _ in range(n)]
    g = [[sum((a[k][i] * a[k][j] for k in range(n)), GaussianRational(0)) for j in range(n)]
         for i in range(n)]
    try:
        return HoloMetric(g)
    except ValueError:  # singular
        assume(False)


@pytest.mark.parametrize("n", [2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_gradient_residual_is_the_metric_pairing_form(n, data):
    g = data.draw(metrics(n))
    a, f = data.draw(quadratics(n)), data.draw(quadratics(n))
    assume(a * laplacian(f, g))
    paired = g.pair_fields(gradient(f, g), gradient(a, g)) + a * laplacian(f, g)
    assert gradient_lm_residual(a, f, g) == paired


def fields(n):
    return st.lists(quadratics(n), min_size=n, max_size=n).map(lambda comps: VectorField(n, comps))


@pytest.mark.parametrize("n", [2, 3])
@SETTINGS
@given(data=st.data())
def test_divergence_type_check_is_the_multiplier_check_of_div_w(n, data):
    w, z = data.draw(fields(n)), data.draw(fields(n))
    omega = VolumeForm(n, data.draw(gaussian.filter(bool)))
    div_w, div_z = divergence(w, omega), divergence(z, omega)
    assume(div_w * div_z)
    check = divergence_type_check(w, z, omega)
    assert check == is_last_multiplier(div_w, z, omega)
    assert check.residual == apply_field(z, div_w) + div_w * div_z


@pytest.mark.parametrize("n", [3, 4])
@SETTINGS
@given(data=st.data())
def test_realified_hamiltonian_and_self_identities_off_poisson(n, data):
    p = data.draw(bivectors(n))
    assume(jacobiator(p))
    f = data.draw(quadratics(n))
    zf = hamiltonian_field(f, p)
    assume(zf)
    q_re, q_im = realify_poisson(p)
    u = modsq(f)
    # 2 Z^R_{|f|^2} == 2 Re(conj(f) Z_f) and the imaginary-part analogue
    assert real_hamiltonian(u, q_re).scale(2) == conj_scaled_real_field(f, zf)
    assert real_hamiltonian(u, q_im).scale(2) == conj_scaled_imag_field(f, zf)
    # the real self residuals are (Re, Im) of conj(f) * sigma
    sigma = self_multiplier_residual(f, p, VolumeForm(n))
    re_part, im_part = conj_product_split(f, sigma)
    assert real_self_residual(u, q_re) == re_part
    assert real_self_residual(u, q_im) == im_part
    assert (re_part.is_zero() and im_part.is_zero()) == sigma.is_zero()
