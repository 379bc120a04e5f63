"""Constant-coefficient holomorphic Riemannian metrics.

A metric carries its exact inverse and a volume factor c with c^2 equal to
the determinant, so the induced volume form stays inside the Gaussian
rationals.  Metrics whose determinant is not a perfect square in Q(i) are
rejected; rescale the metric by a square factor to use them.
"""

from __future__ import annotations

from typing import Sequence

from .calculus import VectorField, VolumeForm, _multiplier_residual, apply_field, divergence
from .linsolve import determinant, invert_matrix
from .poly import CPoly
from .scalars import GaussianRational, sqrt_gaussian


class HoloMetric:
    __slots__ = ("n", "g", "ginv", "vol_factor")

    def __init__(self, entries: Sequence[Sequence]):
        g = [[GaussianRational.coerce(x) for x in row] for row in entries]
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("metric matrix must be square")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("metric matrix must be symmetric")
        det = determinant(g)
        if not det:
            raise ValueError("metric matrix is singular")
        c = sqrt_gaussian(det)
        if c is None:
            raise ValueError(
                "metric determinant is not a perfect square in Q(i); "
                "supply a rescaled metric with square determinant"
            )
        self.n = n
        self.g = g
        self.ginv = invert_matrix(g)
        self.vol_factor = c

    @classmethod
    def euclidean(cls, n: int) -> "HoloMetric":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def is_euclidean(self) -> bool:
        one = GaussianRational(1)
        zero = GaussianRational(0)
        return all(
            self.g[i][j] == (one if i == j else zero)
            for i in range(self.n)
            for j in range(self.n)
        )

    def volume(self) -> VolumeForm:
        return VolumeForm(self.n, self.vol_factor)

    def pair_fields(self, v: VectorField, w: VectorField) -> CPoly:
        """g(V, W) as a polynomial."""
        if v.n != self.n or w.n != self.n:
            raise ValueError("dimension mismatch with metric")
        if v.ring is not CPoly or w.ring is not CPoly:
            raise TypeError("ring mismatch: the metric pairs CPoly fields")
        vc, wc, g = v.components, w.components, self.g
        return CPoly._sum(self.n, [(1, vc[i].scale(g[i][j]), wc[j])
                                   for i in range(self.n) for j in range(self.n) if g[i][j]])

    def __repr__(self):
        return f"HoloMetric(n={self.n}, det_sqrt={self.vol_factor})"


def _raise_index(f, inverse, field_class):
    """The field_class field with components sum_i inverse[i][j] * df/dz^i."""
    n = len(inverse)
    if f.nvars != n:
        raise ValueError("dimension mismatch with metric")
    partials = [f.diff(i) for i in range(1, n + 1)]
    # summed in the ring of f: the field class's constructor checks it
    return field_class(n, [type(f)._sum(n, [(1, partials[i].scale(inverse[i][j]))
                                            for i in range(n) if inverse[i][j]])
                           for j in range(n)])


def gradient(f: CPoly, metric: HoloMetric) -> VectorField:
    """Field metrically dual to df: components sum_i ginv^{ij} df/dz^i."""
    return _raise_index(f, metric.ginv, VectorField)


def laplacian(f: CPoly, metric: HoloMetric) -> CPoly:
    """Divergence of the gradient under the metric volume form."""
    return divergence(gradient(f, metric), metric.volume())


def gradient_lm_residual(alpha: CPoly, f: CPoly, metric: HoloMetric) -> CPoly:
    """grad f(alpha) + alpha*laplacian(f): the gradient field's own last-multiplier residual."""
    return _multiplier_residual(gradient(f, metric), alpha, metric.volume())


def conformal_equivalence(f: CPoly, field: VectorField) -> bool:
    """Multiplier sets under g and f*g coincide exactly when Z annihilates f.

    This is the denominator-cleared form of requiring log f to be a first
    integral of Z.
    """
    if f.is_zero():
        raise ValueError("conformal factor must be nonzero")
    return apply_field(field, f).is_zero()
