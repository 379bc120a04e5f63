"""The multiplier layer builds every result in the ring of its operands.

Darboux cofactors, the Darboux exponent search, symmetry and frame inverse
multipliers and products run on `RPoly` / `RealVectorField` data through
the same functions as on complex data.  The checks use `type(...) is`,
because a `CPoly` with real coefficients compares equal to the `RPoly` with
the same terms.  The bridge case is the paper's: if Z(f) = g * f, the real
Darboux cofactor of |f|^2 along the realified field is 2 Re g.
"""

import pytest

from holomult.calculus import RealVectorField, VectorField, VolumeForm
from holomult.multipliers import (
    darboux_cofactor,
    darboux_multiplier_search,
    inverse_from_frame,
    inverse_from_symmetries,
    lift_poly,
    product_combine,
)
from holomult.poly import CPoly, RPoly
from holomult.realify import modsq, realify_field
from holomult.scalars import GaussianRational

RINGS = [(VectorField, CPoly), (RealVectorField, RPoly)]
ring_ids = ["complex", "real"]


@pytest.mark.parametrize("cls, ring", RINGS, ids=ring_ids)
def test_zero_derivative_gives_the_zero_cofactor_of_the_ring(cls, ring):
    x1 = ring.var(2, 1)
    pair = darboux_cofactor(x1, cls(2, [ring.zero(2), x1]))
    assert type(pair.cofactor) is ring
    assert pair.cofactor.is_zero()


@pytest.mark.parametrize("cls, ring", RINGS, ids=ring_ids)
def test_search_cofactors_all_live_in_the_ring(cls, ring):
    x1, x2 = ring.var(2, 1), ring.var(2, 2)
    solution = darboux_multiplier_search(cls(2, [x1, -x2]), [x1, x2, x1 * x2], VolumeForm(2))
    assert [type(pair.cofactor) for pair in solution.basis] == [ring] * 3
    assert [pair.cofactor for pair in solution.basis] == [ring.const(2, 1), ring.const(2, -1),
                                                          ring.zero(2)]
    assert solution.exponents == [GaussianRational(0)] * 3
    assert len(solution.nullspace) == 2


@pytest.mark.parametrize("cls, ring", RINGS, ids=ring_ids)
def test_empty_system_is_the_zero_monomials_row(cls, ring):
    # div(d/dx2) = 0 and x1 has the zero cofactor: no monomial appears anywhere
    solution = darboux_multiplier_search(cls.coordinate(2, 2), [ring.var(2, 1)], VolumeForm(2))
    assert solution.exponents == [GaussianRational(0)]
    assert solution.nullspace == [[GaussianRational(1)]]
    assert type(solution.basis[0].cofactor) is ring
    none = darboux_multiplier_search(cls.coordinate(2, 2), [], VolumeForm(2))
    assert none.exponents == [] and none.basis == [] and none.nullspace == []


@pytest.mark.parametrize("cls, ring", RINGS, ids=ring_ids)
def test_symmetry_contraction_is_a_scalar_of_the_ring(cls, ring):
    beta = inverse_from_symmetries([cls.coordinate(2, 2)], cls.coordinate(2, 1), VolumeForm(2))
    assert type(beta) is ring
    assert beta == ring.const(2, 1)


@pytest.mark.parametrize("cls, ring", RINGS, ids=ring_ids)
def test_coordinate_frame_inverse_multiplier(cls, ring):
    frame = [cls.coordinate(2, 1), cls.coordinate(2, 2)]
    structure = [[ring.zero(2)] * 2 for _ in range(2)]
    beta = inverse_from_frame(frame, structure, cls.coordinate(2, 1), VolumeForm(2))
    assert type(beta) is ring
    assert beta == ring.const(2, 1)


@pytest.mark.parametrize("cls, ring", RINGS, ids=ring_ids)
def test_frame_with_nonzero_trace_is_refused_in_either_ring(cls, ring):
    frame = [cls.coordinate(2, 1), cls.coordinate(2, 2)]
    x1 = ring.var(2, 1)
    # Z = x1 d/dx1: [Z, d/dx1] = -d/dx1 and [Z, d/dx2] = 0, trace -1
    structure = [[ring.const(2, -1), ring.zero(2)], [ring.zero(2), ring.zero(2)]]
    field = cls(2, [x1, ring.zero(2)])
    with pytest.raises(ValueError, match="structure-function trace is nonzero"):
        inverse_from_frame(frame, structure, field, VolumeForm(2))
    structure[0][0] = ring.zero(2)
    with pytest.raises(ValueError, match="bracket relation fails for frame field #1"):
        inverse_from_frame(frame, structure, field, VolumeForm(2))


@pytest.mark.parametrize("cls, ring", RINGS, ids=ring_ids)
def test_product_combine_stays_in_the_ring(cls, ring):
    x1 = ring.var(1, 1)
    s = cls(1, [x1])
    assert type(lift_poly(x1, 2, 1)) is ring
    beta, combined = product_combine(x1, s, x1, s)
    assert type(beta) is ring
    assert type(combined) is cls
    assert beta == ring.var(2, 1) * ring.var(2, 2)
    assert combined == cls(2, [ring.var(2, 1), ring.var(2, 2)])


@pytest.mark.parametrize("g, twice_re", [(GaussianRational(0, 1), 0), (GaussianRational(1, 1), 2)])
def test_real_cofactor_of_modsq_is_twice_the_real_part(g, twice_re):
    z1 = CPoly.var(1, 1)
    g_poly = CPoly.const(1, g)
    field = VectorField(1, [z1 * g_poly])
    assert darboux_cofactor(z1, field).cofactor == g_poly
    real_field, _ = realify_field(field)
    cofactor = darboux_cofactor(modsq(z1), real_field).cofactor
    assert type(cofactor) is RPoly
    assert cofactor == 2 * g_poly.realify_split()[0]
    assert cofactor == RPoly.const(2, twice_re)
