"""Exact conversion of holomorphic objects to real counterparts on R^{2n}.

Variables are ordered x1..xn, y1..yn with z^k = x^k + i*y^k.  One rule,
d/dz^k = (d/dx^k - i d/dy^k)/2, realifies a holomorphic multivector M of
any grade g: a component M^K expands over the 2^g choices of x^k or y^k per
index, with (-i)^q for q y's and -1 for an odd sort of the chosen index set.
`realify_poisson` is (Re M, Im M) at factor 1, `realify_field` at factor 2
(2 Re Z = (X, Y), 2 Im Z = (Y, -X) for Z^k = X^k + i*Y^k), and the
conj-scaled fields are its halves at factor 2 over conj(f) * W^k, with f
split once per field.
2 Re Z generates the equivalent real ODE system; multiplier predicates are
insensitive to the overall sign and scale of either field.

`RealVectorField` and `RealBivector` are `VectorField` and `Bivector` over
RPoly, so the real twins (apply, divergence, Hamiltonian and modular fields,
Jacobi) are the `calculus` and `poisson` functions; the `real_*` names below
are aliases or one-line calls of them.  The one exception, the real Jacobi
test of a bivector q, answers on C^n when q is Re P or Im P of a holomorphic
P, recovered by `_complexify` after an exact round trip, and takes that
direct route on R^{2n} otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Tuple

from .calculus import (
    RealVectorField, VectorField, VolumeForm, _contract, _multiplier_residual, _wrap, apply_field,
    divergence,
)
from .linsolve import _inverse
from .metric import HoloMetric, _raise_index
from .poisson import Bivector, hamiltonian_field, is_poisson, modular_field, self_multiplier_residual
from .poly import CPoly, RPoly, _BasePoly, _y_free


def _realified(n: int, grade: int, splits, factor):
    """(index set on R^{2n}, factor * (Re, Im) there) for M^K = a + i b on C^n given as
    {K: (a, b)}: each (K, choice) sets its own index set once.

    Row q of the table is (-i)^q (a + i b).
    """
    ratio = Fraction(factor, 2 ** grade)
    for key, (a, b) in splits.items():
        if ratio != 1:
            a, b = a.scale(ratio), b.scale(ratio)
        neg_a, neg_b = -a, -b
        table = ((a, b), (b, neg_a), (neg_a, neg_b), (neg_b, a))
        for shifts in product((0, n), repeat=grade):  # per index, 0 picks x^k and n picks y^k
            chosen = tuple(k + s for k, s in zip(key, shifts))
            ordered = tuple(sorted(chosen))
            q = grade - shifts.count(0) + (_contract(chosen, ordered)[0] < 0) * 2
            yield ordered, table[q & 3]


def _realify(n: int, grade: int, splits, kind, factor):
    """factor * (Re M, Im M) on R^{2n}, of `kind`, for M^K = a + i b on C^n given as {K: (a, b)}."""
    re_comps, im_comps = {}, {}
    for ordered, (re, im) in _realified(n, grade, splits, factor):
        re_comps[ordered], im_comps[ordered] = re, im
    return _wrap(kind, 2 * n, grade, RPoly, re_comps), _wrap(kind, 2 * n, grade, RPoly, im_comps)


def _splits(m, grade: int, name: str):
    """{K: M^K.realify_split()} for a CPoly multivector M of `grade` (M.realify_split() at
    grade 0); a wrong grade raises a `ValueError` naming `name`, real data the kernel's
    ring-mismatch TypeError."""
    ring, got = (type(m), 0) if isinstance(m, _BasePoly) else (m.ring, m.grade)
    if got != grade:
        raise ValueError(f"{name} needs grade {grade}, got grade {got}")
    if ring is not CPoly:
        raise TypeError(f"ring mismatch: CPoly vs {ring.__name__}")
    return {k: c.realify_split() for k, c in m.comps.items()} if grade else m.realify_split()


def realify_field(field: VectorField) -> Tuple[RealVectorField, RealVectorField]:
    """Split a holomorphic field into its two attached real fields, 2 Re Z and 2 Im Z."""
    return _realify(field.n, 1, _splits(field, 1, "realify_field"), RealVectorField, 2)


def modsq(alpha: CPoly) -> RPoly:
    """Exact squared modulus: (Re alpha)^2 + (Im alpha)^2 on R^{2n}."""
    return _sum_of_squares(*_splits(alpha, 0, "modsq"))


def _sum_of_squares(re: RPoly, im: RPoly) -> RPoly:
    """re^2 + im^2 as one kernel sum: the squared modulus of a split (re, im)."""
    return RPoly._sum_squares(re.nvars, (re, im))


# calculus.apply_field on a RealVectorField: sum of X^a * du/dx^a
real_apply = apply_field


def real_divergence(field: RealVectorField) -> RPoly:
    """calculus.divergence against the unit volume on R^{2n} (the weight cancels)."""
    return divergence(field, VolumeForm(field.n))


def real_lm_residual(u: RPoly, field: RealVectorField) -> RPoly:
    """Residual of the real last-multiplier equation X(u) + u div(X)."""
    return _multiplier_residual(field, u, VolumeForm(field.n))


def _conj_product(f_split, s_split) -> Tuple[RPoly, RPoly]:
    """(Re, Im) of conj(f)*s from the splits (fx, fy) of f and (sx, sy) of s."""
    (fx, fy), (sx, sy) = f_split, s_split
    return (RPoly._sum(fx.nvars, [(1, fx, sx), (1, fy, sy)]),
            RPoly._sum(fx.nvars, [(1, fx, sy), (-1, fy, sx)]))


def conj_product_split(f: CPoly, s: CPoly) -> Tuple[RPoly, RPoly]:
    """(Re, Im) of conj(f)*s as exact real polynomials."""
    return _conj_product(_splits(f, 0, "conj_product_split"), _splits(s, 0, "conj_product_split"))


def _conj_scaled(f: CPoly, w: VectorField, name: str):
    """(2 Re, 2 Im)(conj(f) * W) realified, splitting f once and each component of W once."""
    w_splits = _splits(w, 1, name)
    f_split = _splits(f, 0, name)
    return _realify(w.n, 1, {k: _conj_product(f_split, c) for k, c in w_splits.items()},
                    RealVectorField, 2)


def conj_scaled_real_field(f: CPoly, w: VectorField) -> RealVectorField:
    """Realification of 2 Re(conj(f) * W), componentwise."""
    return _conj_scaled(f, w, "conj_scaled_real_field")[0]


def conj_scaled_imag_field(f: CPoly, w: VectorField) -> RealVectorField:
    """Realification of 2 Im(conj(f) * W), componentwise."""
    return _conj_scaled(f, w, "conj_scaled_imag_field")[1]


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
    """Quarter-scaled real and imaginary parts (Re P, Im P); each is Poisson whenever P is."""
    return _realify(p.n, 2, _splits(p, 2, "realify_poisson"), RealBivector, 1)


# poisson.hamiltonian_field on a RealBivector: component b is sum_a Q^{ab} du/dx^a
real_hamiltonian = hamiltonian_field


def _complexify(q) -> Bivector | None:
    """The holomorphic P on C^n whose realification has q as its real half, or None.

    Only a `RealBivector` on R^{2n} with n >= 2 qualifies.  P^{jk} is
    4 (q^{x_j x_k} + i q^{x_j y_k}) at y = 0 with x renamed z, kept only when
    the real half of the realification of P is q in canonical storage; since
    Im P = Re(-iP), the imaginary half gives -iP.
    """
    if not isinstance(q, RealBivector) or q.n % 2 or q.n < 4:
        return None
    n, comps = q.n // 2, q.comps
    zero = RPoly.zero(q.n)
    quarters = {}  # P^{jk} / 4, whose realification at factor 4 needs no scaling
    for j, k in combinations(range(1, n + 1), 2):
        xx, xy = comps.get((j, k), zero), comps.get((j, k + n), zero)
        den = lcm(xx._den, xy._den)
        re = _y_free(xx._re, n, den // xx._den)
        im = _y_free(xy._re, n, den // xy._den)
        if re or im:
            quarters[(j, k)] = CPoly._reduced(n, re, im, den)
    splits = {key: entry.realify_split() for key, entry in quarters.items()}
    if {key: re for key, (re, _) in _realified(n, 2, splits, 4) if re} != comps:
        return None
    return _wrap(Bivector, n, 2, CPoly, {key: entry.scale(4) for key, entry in quarters.items()})


def is_real_poisson(q: RealBivector) -> bool:
    """poisson.is_poisson of q, answered on C^n when q is Re P or Im P: J(Re P) = Re J(P)/2."""
    p = _complexify(q)
    return is_poisson(q if p is None else p)


def real_modular_field(q: RealBivector) -> RealVectorField:
    """poisson.modular_field against the unit volume on R^{2n} (the weight cancels)."""
    return modular_field(q, VolumeForm(q.n))


def real_self_residual(u: RPoly, q: RealBivector) -> RPoly:
    """Real counterpart of the self-multiplier residual for bivectors."""
    return self_multiplier_residual(u, q, VolumeForm(q.n))
