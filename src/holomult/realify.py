"""Exact conversion of holomorphic objects to real counterparts on R^{2n}.

Variables are ordered x1..xn, y1..yn with z^k = x^k + i*y^k.  The two real
fields attached to a holomorphic field Z are

    field_re(Z) = 2 Re Z   with components (X^1..X^n, Y^1..Y^n)
    field_im(Z) = 2 Im Z   with components (Y^1..Y^n, -X^1..-X^n)

where Z^k = X^k + i*Y^k.  The first one generates the equivalent real ODE
system; multiplier predicates are insensitive to the overall sign and scale
of either field.

`RealVectorField` and `RealBivector` are `VectorField` and `Bivector` over
RPoly, so the real twins (apply, divergence, Hamiltonian and modular fields,
Jacobi) are the `calculus` and `poisson` functions; the `real_*` names below
are aliases or one-line calls of them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .calculus import (
    RealVectorField, VectorField, VolumeForm, _multiplier_residual, apply_field, divergence,
)
from .linsolve import _inverse
from .metric import HoloMetric, _raise_index
from .poisson import Bivector, hamiltonian_field, is_poisson, modular_field, self_multiplier_residual
from .poly import CPoly, RPoly


def _real_attached(splits: Sequence[Tuple[RPoly, RPoly]]) -> RealVectorField:
    """The field (X, Y) from per-component (re, im) = (X^k, Y^k)."""
    return RealVectorField(2 * len(splits), [re for re, _ in splits] + [im for _, im in splits])


def _imag_attached(splits: Sequence[Tuple[RPoly, RPoly]]) -> RealVectorField:
    """The field (Y, -X) from per-component (re, im) = (X^k, Y^k)."""
    return RealVectorField(2 * len(splits), [im for _, im in splits] + [-re for re, _ in splits])


def realify_field(field: VectorField) -> Tuple[RealVectorField, RealVectorField]:
    """Split a holomorphic field into its two attached real fields."""
    splits = [comp.realify_split() for comp in field.components]
    return _real_attached(splits), _imag_attached(splits)


def modsq(alpha: CPoly) -> RPoly:
    """Exact squared modulus: (Re alpha)^2 + (Im alpha)^2 on R^{2n}."""
    return _sum_of_squares(*alpha.realify_split())


def _sum_of_squares(re: RPoly, im: RPoly) -> RPoly:
    """re^2 + im^2 as one kernel sum: the squared modulus of a split (re, im)."""
    return RPoly._sum(re.nvars, [(1, re, re), (1, im, im)])


# calculus.apply_field on a RealVectorField: sum of X^a * du/dx^a
real_apply = apply_field


def real_divergence(field: RealVectorField) -> RPoly:
    """calculus.divergence against the unit volume on R^{2n} (the weight cancels)."""
    return divergence(field, VolumeForm(field.n))


def real_lm_residual(u: RPoly, field: RealVectorField) -> RPoly:
    """Residual of the real last-multiplier equation X(u) + u div(X)."""
    return _multiplier_residual(field, u, VolumeForm(field.n))


def conj_product_split(f: CPoly, s: CPoly) -> Tuple[RPoly, RPoly]:
    """(Re, Im) of conj(f)*s as exact real polynomials."""
    fx, fy = f.realify_split()
    sx, sy = s.realify_split()
    return fx * sx + fy * sy, fx * sy - fy * sx


def conj_scaled_real_field(f: CPoly, w: VectorField) -> RealVectorField:
    """Realification of 2 Re(conj(f) * W), componentwise."""
    return _real_attached([conj_product_split(f, comp) for comp in w.components])


def conj_scaled_imag_field(f: CPoly, w: VectorField) -> RealVectorField:
    """Realification of 2 Im(conj(f) * W), componentwise."""
    return _imag_attached([conj_product_split(f, comp) for comp in w.components])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class RealMetric:
    """Anti-Kaehler twin pair (h, k) induced by a holomorphic metric.

    h carries the doubled real part in its x-block; k is the twin metric
    h(J., .) for the complex structure J that rotates x-axes into y-axes.
    Both exact inverses are stored, computed over Q by the shared
    elimination in `linsolve`; twice each inverse reproduces the block
    pattern built from the inverse of the holomorphic metric.
    """

    __slots__ = ("n", "h", "k", "hinv", "kinv")

    def __init__(self, n: int, h, k):
        self.n = n
        self.h = h
        self.k = k
        self.hinv = _inverse(h, Fraction(1))
        self.kinv = _inverse(k, Fraction(1))

    def inverse_blocks(self, which: str):
        if which == "h":
            return self.hinv
        if which == "k":
            return self.kinv
        raise ValueError("which must be 'h' or 'k'")


def realify_metric(metric: HoloMetric) -> RealMetric:
    def parts(matrix):
        """Real and imaginary parts of a complex matrix, then their negatives."""
        re = [[x.re for x in row] for row in matrix]
        im = [[x.im for x in row] for row in matrix]
        return re, im, [[-x for x in row] for row in re], [[-x for x in row] for row in im]

    def block(tl, tr, bl, br, k):
        """k * [[tl, tr], [bl, br]] for square blocks of one size."""
        return [[k * x for x in left + right] for left, right in zip(tl + bl, tr + br)]

    a, b, neg_a, neg_b = parts(metric.g)
    real = RealMetric(metric.n, block(a, neg_b, neg_b, neg_a, 2), block(neg_b, neg_a, neg_a, b, 2))
    # the inverses must be half the block pattern of the inverse metric
    c, d, neg_c, neg_d = parts(metric.ginv)
    half = Fraction(1, 2)
    if real.hinv != block(c, d, d, neg_c, half):
        raise AssertionError("h-inverse block pattern failed")
    if real.kinv != block(d, neg_c, neg_c, neg_d, half):
        raise AssertionError("k-inverse block pattern failed")
    return real


def real_gradient(u: RPoly, metric: RealMetric, which: str = "h") -> RealVectorField:
    """Gradient of u under the chosen twin metric, using the exact inverse."""
    return _raise_index(u, metric.inverse_blocks(which), RealVectorField)


# ---------------------------------------------------------------------------
# Poisson structures
# ---------------------------------------------------------------------------


class RealBivector(Bivector):
    """Antisymmetric RPoly matrix on R^{2n}, stored upper-triangular."""

    __slots__ = ()
    field = RealVectorField


def realify_poisson(p: Bivector) -> Tuple[RealBivector, RealBivector]:
    """Quarter-scaled real and imaginary parts of a holomorphic bivector.

    Each returns a real Poisson structure whenever the input satisfies the
    Jacobi identity; the correspondence is relied upon, not re-derived, and
    the test suite confirms it on the shipped examples.
    """
    n = p.n
    quarter = Fraction(1, 4)
    # 4 dz_i ^ dz_j = (dx_i ^ dx_j - dy_i ^ dy_j) - i (dx_i ^ dy_j - dx_j ^ dy_i)
    re_comps: Dict[Tuple[int, int], RPoly] = {}
    im_comps: Dict[Tuple[int, int], RPoly] = {}
    for (i, j), entry in p.comps.items():
        re, im = (part.scale(quarter) for part in entry.realify_split())
        re_comps[(i, j)], re_comps[(n + i, n + j)] = re, -re
        re_comps[(i, n + j)], re_comps[(j, n + i)] = im, -im
        im_comps[(i, j)], im_comps[(n + i, n + j)] = im, -im
        im_comps[(i, n + j)], im_comps[(j, n + i)] = -re, re
    return RealBivector(2 * n, re_comps), RealBivector(2 * n, im_comps)


# poisson.hamiltonian_field on a RealBivector: component b is sum_a Q^{ab} du/dx^a
real_hamiltonian = hamiltonian_field


def real_modular_field(q: RealBivector) -> RealVectorField:
    """poisson.modular_field against the unit volume on R^{2n} (the weight cancels)."""
    return modular_field(q, VolumeForm(q.n))


def real_self_residual(u: RPoly, q: RealBivector) -> RPoly:
    """Real counterpart of the self-multiplier residual for bivectors."""
    return self_multiplier_residual(u, q, VolumeForm(q.n))


# poisson.is_poisson on a RealBivector: the Jacobiator vanishes on every triple
is_real_poisson = is_poisson
