"""Last multipliers, inverse multipliers, first integrals, and Darboux search.

Every predicate returns its residual with its verdict, True exactly when
the residual is zero; every last-multiplier residual of a field (the metric
gradient and Poisson Hamiltonian ones too) is its `_multiplier_residual`.
Results take the ring and field class of the operands (`field.ring`,
`type(field)`, `type(p)`), so the same functions run on real data too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from .calculus import (
    VectorField,
    VolumeForm,
    _collect,
    _multiplier_residual,
    apply_field,
    divergence,
    flat,
    interior_product,
    lie_bracket,
    partial_d,
    wedge,
)
from .linsolve import solve_linear
from .poly import CPoly
from .scalars import GaussianRational


@dataclass
class Check:
    """Verdict plus the exact residual behind it.

    The residual is a polynomial, or a vector field for the bivector
    multiplier check; the verdict is True exactly when it is zero.
    """

    ok: bool
    residual: Union[CPoly, VectorField]

    def __bool__(self):
        return self.ok


def is_first_integral(f: CPoly, field: VectorField) -> Check:
    residual = apply_field(field, f)
    return Check(residual.is_zero(), residual)


def is_last_multiplier(alpha: CPoly, field: VectorField, omega: VolumeForm) -> Check:
    """alpha is a last multiplier when Z(alpha) + alpha*div(Z) vanishes.

    Computed twice: directly, and as closedness of alpha * (Z contracted into
    the volume form); the two routes must agree exactly.
    """
    residual = _multiplier_residual(field, alpha, omega)
    d_alpha_theta = partial_d(wedge(alpha, flat(field, omega)))
    top = tuple(range(1, field.n + 1))
    form_residual = d_alpha_theta.component(top)
    expected = residual.scale(omega.weight)
    if form_residual != expected:
        raise AssertionError("divergence route and form route disagree")
    return Check(residual.is_zero(), residual)


def is_inverse_multiplier(beta: CPoly, field: VectorField, omega: VolumeForm) -> Check:
    residual = _multiplier_residual(field, beta, omega, -1)
    return Check(residual.is_zero(), residual)


def adjoint_apply(field: VectorField, f: CPoly, omega: VolumeForm) -> CPoly:
    """Adjoint action: -Z(f) - f*div(Z); its kernel is the multiplier set."""
    return -_multiplier_residual(field, f, omega)


# ---------------------------------------------------------------------------
# Darboux machinery
# ---------------------------------------------------------------------------


@dataclass
class DarbouxPair:
    poly: CPoly
    cofactor: CPoly


@dataclass
class ExponentSolution:
    """Product-form multiplier data: exponents m_k for the candidate factors.

    The residual identity sum(m_k * cofactor_k) + div(Z) == 0 holds exactly.
    When the system is underdetermined, `exponents` is the minimal-support
    particular solution and `nullspace` spans the remaining freedom.
    """

    exponents: List[GaussianRational]
    basis: List[DarbouxPair]
    nullspace: List[List[GaussianRational]]


def darboux_cofactor(f: CPoly, field: VectorField) -> Optional[DarbouxPair]:
    """Extract the cofactor g with Z(f) = g*f, or None when f does not divide Z(f)."""
    if f.is_zero():
        raise ValueError("zero polynomial cannot be a Darboux polynomial")
    quotient = apply_field(field, f).divide_exact(f)
    if quotient is None:
        return None
    return DarbouxPair(f, quotient)


def darboux_multiplier_search(
    field: VectorField, candidates: Sequence[CPoly], omega: VolumeForm
) -> Optional[ExponentSolution]:
    """Match exponents so the product of candidates is a multiplier.

    Builds the coefficient-matching linear system sum(m_k g_k) = -div(Z) over
    every monomial appearing in the cofactors or the divergence, then solves
    exactly.  Returns None when the system is inconsistent.
    """
    pairs = []
    for cand in candidates:
        pair = darboux_cofactor(cand, field)
        if pair is None:
            raise ValueError(f"candidate {cand.format()} is not a Darboux polynomial")
        pairs.append(pair)
    div = divergence(field, omega)
    monomials = set(div.terms)
    for pair in pairs:
        monomials.update(pair.cofactor.terms)
    # an empty system is the zero monomial's row: 0 == 0
    mono_list = sorted(monomials) or [(0,) * field.n]
    zero = GaussianRational(0)
    matrix = [
        [pair.cofactor.terms.get(mono, zero) for pair in pairs] for mono in mono_list
    ]
    rhs = [-div.terms.get(mono, zero) for mono in mono_list]
    solution = solve_linear(matrix, rhs)
    if not solution.is_consistent:
        return None
    identity = [(1, pair.cofactor.scale(m_k)) for m_k, pair in zip(solution.particular, pairs)]
    if field.ring._sum(field.n, identity + [(1, div)]):
        raise AssertionError("solved exponents fail the cofactor identity")
    return ExponentSolution(
        exponents=list(solution.particular),
        basis=pairs,
        nullspace=solution.nullspace,
    )


# ---------------------------------------------------------------------------
# symmetries and frames
# ---------------------------------------------------------------------------


def symmetry_coefficient(s: VectorField, field: VectorField) -> Optional[CPoly]:
    """Polynomial lambda with [Z, S] = lambda * Z, or None if no polynomial works."""
    lam, _ = _symmetry_analysis(s, field)
    return lam


def symmetry_defect(s: VectorField, field: VectorField) -> List[int]:
    """1-based component indices at which [Z, S] fails to be a multiple of Z.

    Empty exactly when symmetry_coefficient succeeds.
    """
    _, bad = _symmetry_analysis(s, field)
    return bad


def _symmetry_analysis(s: VectorField, field: VectorField):
    if field.is_zero():
        raise ValueError("symmetry check needs a nonzero base field")
    bracket = lie_bracket(field, s)
    # lambda is fixed by the first nonzero component of the field
    comps, b_comps = field.components, bracket.components
    k = next(k for k, comp in enumerate(comps, start=1) if comp)
    lam = b_comps[k - 1].divide_exact(comps[k - 1])
    if lam is None:
        return None, [k]
    bad = []
    for k, (comp, b_comp) in enumerate(zip(comps, b_comps), start=1):
        if lam * comp != b_comp:
            bad.append(k)
    if bad:
        return None, bad
    return lam, []


def inverse_from_symmetries(
    symmetries: Sequence[VectorField], field: VectorField, omega: VolumeForm
) -> CPoly:
    """Contract n-1 symmetries into theta = i_Z omega; the scalar left over
    is an inverse multiplier."""
    n = field.n
    if len(symmetries) != n - 1:
        raise ValueError(f"need {n - 1} symmetries on dimension {n}")
    for i, sym in enumerate(symmetries):
        if symmetry_coefficient(sym, field) is None:
            raise ValueError(f"field #{i + 1} is not a symmetry of the base field")
    theta = flat(field, omega)
    for sym in symmetries:
        theta = interior_product(sym, theta)
    beta = theta
    if not isinstance(beta, field.ring):
        raise AssertionError("contraction did not reduce to a scalar")
    check = is_inverse_multiplier(beta, field, omega)
    if not check.ok:
        raise AssertionError("symmetry contraction failed the inverse-multiplier identity")
    return beta


def frame_volume(frame: Sequence[VectorField], omega: VolumeForm) -> CPoly:
    """omega(Z_1, ..., Z_n): the flat of the wedge Z_1 ^ ... ^ Z_n."""
    if len(frame) != omega.n:
        raise ValueError("frame size must equal the dimension")
    top = frame[0]
    for z in frame[1:]:
        top = wedge(top, z)
    return flat(top, omega)


def inverse_from_frame(
    frame: Sequence[VectorField],
    structure: Sequence[Sequence[CPoly]],
    field: VectorField,
    omega: VolumeForm,
) -> CPoly:
    """Verify the frame relations [Z, Z_i] = sum_k f_i^k Z_k with zero trace,
    then return beta = omega(Z_1, ..., Z_n).  A scalar f_i^k reads as a
    constant of the field's ring."""
    n = field.n
    if len(frame) != n or len(structure) != n or any(len(row) != n for row in structure):
        raise ValueError("frame and structure matrix must both be n-sized")
    structure = [[field.ring.zero(n)._operand(f) for f in row] for row in structure]
    # every bracket first: lie_bracket refuses a frame field of another class or dimension
    brackets = [lie_bracket(field, z) for z in frame]
    for i, (bracket, row) in enumerate(zip(brackets, structure), start=1):
        terms = [((1, key), f, comp) for f, z in zip(row, frame) for key, comp in z.comps.items()]
        if bracket != _collect(type(field), n, 1, field.ring, terms):
            raise ValueError(f"bracket relation fails for frame field #{i}")
    if field.ring._sum(n, [(1, structure[k][k]) for k in range(n)]):
        raise ValueError("structure-function trace is nonzero")
    beta = frame_volume(frame, omega)
    check = is_inverse_multiplier(beta, field, omega)
    if not check.ok:
        raise AssertionError("frame volume failed the inverse-multiplier identity")
    return beta


def divergence_type_check(w: VectorField, field: VectorField, omega: VolumeForm) -> Check:
    """`is_last_multiplier` of div(W) for Z: True when the second Lie
    derivative of the volume along (Z, W) vanishes."""
    return is_last_multiplier(divergence(w, omega), field, omega)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def lift_poly(p: CPoly, total: int, offset: int) -> CPoly:
    """Re-index a polynomial into a larger variable block starting at offset."""
    if offset + p.nvars > total:
        raise ValueError("lift overflows the target variable count")
    terms = {}
    for mono, coeff in p.terms.items():
        terms[(0,) * offset + mono + (0,) * (total - offset - p.nvars)] = coeff
    return type(p)(total, terms)


def product_combine(
    beta1: CPoly, field1: VectorField, beta2: CPoly, field2: VectorField
) -> tuple[CPoly, VectorField]:
    """Inverse multipliers multiply across a product of coordinate blocks."""
    n1, n2 = field1.n, field2.n
    total = n1 + n2
    omega1 = VolumeForm(n1)
    omega2 = VolumeForm(n2)
    if not is_inverse_multiplier(beta1, field1, omega1).ok:
        raise ValueError("first factor fails its inverse-multiplier identity")
    if not is_inverse_multiplier(beta2, field2, omega2).ok:
        raise ValueError("second factor fails its inverse-multiplier identity")
    comps = [lift_poly(c, total, 0) for c in field1.components]
    comps += [lift_poly(c, total, n1) for c in field2.components]
    combined = type(field1)(total, comps)
    beta = lift_poly(beta1, total, 0) * lift_poly(beta2, total, n1)
    check = is_inverse_multiplier(beta, combined, VolumeForm(total))
    if not check.ok:
        raise AssertionError("combined product failed the inverse-multiplier identity")
    return beta, combined
