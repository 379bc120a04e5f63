"""Holomorphic Poisson bivectors: brackets, Jacobi, modular fields, exactness.

A bivector is a grade-2 `Multivector`: it stores only its strictly
upper-triangular components, and the lower triangle is implied by
antisymmetry: `entry(i, j)` is the container's `component`, which reads
P^{ji} = -P^{ij} with the sign of `calculus._contract`.  The class attribute
`field` is the class of its Hamiltonian and modular fields and `field.ring`
the ring of its components, so the realified subclass runs the same code.
The fields and the bracket are calculus operations: the Hamiltonian field
of f is the contraction of df into P, the modular field is the divergence of
P against the volume form, and {f, g} is the pairing of df ^ dg with P.  The
Jacobiator is half the Schouten bracket, a grade-3 multivector over the same
ring, gathered in one signed sum per index set:

    1/2 [P, P] = sum_l X_{z^l} ^ dP/dz^l

where X_{z^l}, the Hamiltonian field of z^l, holds P^{lm} at m with
`_contract`'s sign, so every term is a stored entry times a partial of an
entry.  The Jacobiator, the two fields and the exactness and multiplier
checks read every key as a pair, so each refuses any grade but 2.  Nothing
here assumes the bivector is Poisson: the Jacobi test is itself an operation.
Every other sum of products here is one kernel `_sum` or `_collect` call too.

The componentwise route of `exactness_check` needs the divergences of the
triple products P^{li}P^{jk} + P^{lj}P^{ki} + P^{lk}P^{ij} (l outside the
triple i, j, k).  Each is the Pfaffian of the 4-set {l, i, j, k} times the
sign of sorting (l, i, j, k), so `_triple_divergence_zero` builds each
4-set's Pfaffian once, as three products of the stored upper-triangular
entries, and sums each triple's signed l-partials of Pfaffians.  It and
`pfaffian4` read the stored entries only, never `_contract`, so they stay
independent routes of the checks.

A `Bivector` computes its Jacobiator, its modular field and the
Hamiltonian field of each polynomial object once, in its private `_memo`
slot.  That is safe because values are immutable and the volume weight
cancels in the divergence (the dimension is still checked on every call).
A Hamiltonian field is kept under the id of its polynomial beside the
polynomial itself, so the id cannot be reused while the entry lives.
Derived bivectors (`-p`, `p.scale(alpha)`, `p + q`) are new objects, a
plain grade-2 `Multivector` is never memoized, and every cross-checked
route is still computed: route 3 of `bivector_lm_check` reads the
Hamiltonian field of alpha, but routes 1 and 2 never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Tuple

from .calculus import (
    Multivector,
    VectorField,
    VolumeForm,
    _collect,
    _contract,
    _merge_indices,
    _multiplier_residual,
    apply_field,
    curl,
    divergence,
    flat,
    interior_product,
    pairing,
    partial_d,
    wedge,
)
from .metric import HoloMetric, gradient
from .multipliers import Check
from .poly import CPoly


class Bivector(Multivector):
    """Grade-2 multivector over `field.ring`; `entry` is `component`."""

    # results computed once per object, unset until the first one
    __slots__ = ("_memo",)
    field = VectorField

    def __init__(self, n: int, comps: Dict[Tuple[int, int], CPoly] | None = None):
        if n < 2:
            raise ValueError("bivectors need dimension >= 2")
        super().__init__(n, 2, comps, self.field.ring)

    entry = Multivector.component


# the Jacobi defect of a bivector is a grade-3 multivector
Trivector = Multivector


def poisson_bracket(f: CPoly, g: CPoly, p: Bivector) -> CPoly:
    """{f, g} = <df ^ dg, P> = sum_{i<j} P^{ij} (df/dz^i dg/dz^j - df/dz^j dg/dz^i)."""
    if f.nvars != p.n or g.nvars != p.n:
        raise ValueError("dimension mismatch with bivector")
    return pairing(wedge(partial_d(f), partial_d(g)), p)


def _memoized(p, key, compute):
    """compute(), stored under key on a Bivector and read back on later calls."""
    if not isinstance(p, Bivector):
        return compute()
    memo = getattr(p, "_memo", None)
    if memo is None:  # also unset on objects built by calculus._wrap
        memo = p._memo = {}
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _check_grade(p: Multivector, name: str) -> None:
    """Refuse a multivector that is not a bivector: its keys would not be pairs."""
    if p.grade != 2:
        raise ValueError(f"{name} needs a bivector of grade 2, got grade {p.grade}")


def jacobiator(p: Bivector) -> Multivector:
    """Half the Schouten bracket, sum_l X_{z^l} ^ dP/dz^l; zero exactly for Poisson.

    Component (i, j, k) is the cyclic sum {P^{ij}, z^k} + {P^{jk}, z^i} +
    {P^{ki}, z^j}, gathered as one signed sum of entry-times-partial terms
    per index set; below dimension 3 no index set has room, and the result
    is the empty grade-3 one.  Computed once per `Bivector`.
    """
    _check_grade(p, "jacobiator")
    return _memoized(p, "jacobiator", lambda: _schouten_half(p))


def _schouten_half(p: Bivector) -> Multivector:
    comps, terms = p.comps, []
    for l in range(1, p.n + 1):
        # each nonzero partial dP^{K'}/dz^l is taken once
        partials = [(key, d) for key, entry in comps.items() if (d := entry.diff(l))]
        for key, entry in comps.items():
            # X_{z^l} holds the entry at the index m left when l is taken out of key
            if held := _contract((l,), key):
                s, m = held
                for other, d in partials:
                    if signed := _merge_indices(m, other):
                        t, merged = signed
                        terms.append(((s * t, merged), entry, d))
    return _collect(Multivector, p.n, 3, p.ring, terms)


def is_poisson(p: Bivector) -> bool:
    return jacobiator(p).is_zero()


def hamiltonian_field(f: CPoly, p: Bivector) -> VectorField:
    """Field generating the bracket with f, the contraction of df into P.

    Component j is sum_i P^{ij} df/dz^i; zero partials are never stored, so never multiplied.
    Computed once per `Bivector` and polynomial object.
    """
    _check_grade(p, "hamiltonian_field")
    if f.nvars != p.n:
        raise ValueError("dimension mismatch with bivector")
    # the entry holds f, so no other object takes its id while the entry lives
    return _memoized(p, ("hamiltonian", id(f)),
                     lambda: (f, interior_product(partial_d(f), p).to_field()))[1]


def modular_field(p: Bivector, omega: VolumeForm) -> VectorField:
    """Field measuring volume distortion of Hamiltonian flows: the divergence of P.

    Component i is sum_j dP^{ij}/dz^j; the constant volume weight drops out,
    exactly as it does in the divergence, so a `Bivector` computes it once
    for every volume form of its dimension.
    """
    _check_grade(p, "modular_field")
    if p.n != omega.n:
        raise ValueError("dimension mismatch with volume form")
    return _memoized(p, "modular_field", lambda: divergence(p, omega).to_field())


def is_unimodular_with(p: Bivector, h: CPoly, omega: VolumeForm) -> bool:
    """Does h generate the modular field Hamiltonian-ly?"""
    return modular_field(p, omega) == hamiltonian_field(h, p)


def hamiltonian_lm_residual(
    alpha: CPoly, f: CPoly, p: Bivector, omega: VolumeForm, h: Optional[CPoly] = None
) -> CPoly:
    """Residual of 'alpha is a last multiplier for the Hamiltonian field of f'.

    The field's own residual X_f(alpha) + alpha*div(X_f) = alpha*Z_mod(f) -
    Z_alpha(f) for every skew P.  A supplied generator h of the modular field
    adds the bracket form alpha*{h,f} - {alpha,f}, which must agree exactly.
    """
    residual = _multiplier_residual(hamiltonian_field(f, p), alpha, omega)
    if h is not None:
        if not is_unimodular_with(p, h, omega):
            raise ValueError("supplied h does not generate the modular field")
        bracket_form = p.ring._sum(p.n, ((1, alpha, poisson_bracket(h, f, p)),
                                         (-1, poisson_bracket(alpha, f, p))))
        if bracket_form != residual:
            raise AssertionError("unimodular bracket form disagrees with the residual")
    return residual


def self_multiplier_residual(f: CPoly, p: Bivector, omega: VolumeForm) -> CPoly:
    """Zero exactly when f is a last multiplier for its own Hamiltonian field."""
    return apply_field(modular_field(p, omega), f)


@dataclass
class ExactnessResult:
    exact: bool
    residual: VectorField

    def __bool__(self):
        return self.exact


def exactness_check(p: Bivector, omega: VolumeForm) -> ExactnessResult:
    """Is the bivector curl-free?

    The direct curl is authoritative.  For dimension >= 3 the verdict is
    cross-checked against the componentwise route: the curl vanishes exactly
    when the modular components do, and "exact and Poisson" coincides with
    "zero modular components and zero triple divergences".
    """
    _check_grade(p, "exactness_check")
    curled = curl(p, omega)
    residual = curled.to_field()
    exact = residual.is_zero()
    if p.n >= 3:
        mod_zero = modular_field(p, omega).is_zero()
        if exact != mod_zero:
            raise AssertionError("curl route and modular route disagree")
        exact_poisson = exact and is_poisson(p)
        componentwise = mod_zero and _triple_divergence_zero(p)
        if exact_poisson != componentwise:
            raise AssertionError("curl route and componentwise route disagree")
    return ExactnessResult(exact, residual)


def _triple_divergence_zero(p: Bivector) -> bool:
    """Do the divergences of the triple products P^{li}P^{jk} + P^{lj}P^{ki} + P^{lk}P^{ij} vanish?

    For l outside the triple (i, j, k) the triple product is the Pfaffian of
    the 4-set {l, i, j, k} times the sign of sorting (l, i, j, k), and that
    sign is (-1)^(number of i, j, k below l).  So each triple's divergence is
    one signed sum of l-partials of Pfaffians, and each 4-set's Pfaffian is
    built once, when a triple first needs it, from the stored entries.  The
    first triple whose sum is not zero ends the route.
    """
    n, ring = p.n, p.ring
    pfaffians = {}
    for triple in combinations(range(1, n + 1), 3):
        partials = []
        for l in range(1, n + 1):
            if l in triple:
                continue
            quad = tuple(sorted(triple + (l,)))
            pf = pfaffians.get(quad)
            if pf is None:
                pf = pfaffians[quad] = _pfaffian(p, quad)
            below = (triple[0] < l) + (triple[1] < l) + (triple[2] < l)
            partials.append((-1 if below % 2 else 1, pf.diff(l)))
        if ring._sum(n, partials):
            return False
    return True


def _pfaffian(p: Bivector, quad: Tuple[int, int, int, int]) -> CPoly:
    """P^{ab}P^{cd} - P^{ac}P^{bd} + P^{ad}P^{bc} for a < b < c < d, from the stored entries."""
    a, b, c, d = quad
    get, zero = p.comps.get, p.ring.zero(p.n)
    return p.ring._sum(p.n, ((1, get((a, b), zero), get((c, d), zero)),
                             (-1, get((a, c), zero), get((b, d), zero)),
                             (1, get((a, d), zero), get((b, c), zero))))


def bivector_lm_check(alpha: CPoly, p: Bivector, omega: VolumeForm) -> Check:
    """Is alpha a last multiplier for the bivector itself?

    Three routes are computed and must agree exactly: componentwise
    divergences of alpha*P, the curl of the scaled bivector through the
    form calculus, and the cleared modular field of the alpha-weighted
    volume.  True exactly when the common residual vanishes.
    """
    _check_grade(p, "bivector_lm_check")
    if alpha.is_zero():
        raise ValueError("candidate multiplier must be nonzero")
    if alpha.nvars != p.n:
        raise ValueError("dimension mismatch with bivector")
    if p.n != omega.n:
        raise ValueError("dimension mismatch with volume form")
    scaled = p.scale(alpha)  # the operand of routes 1 and 2
    # route 1: componentwise divergence of the scaled bivector (not through
    # modular_field, whose first call marks the start of route 3)
    direct = divergence(scaled, omega).to_field()
    # route 2: curl of alpha*P via flat / exterior derivative / sharp
    via_forms = curl(scaled, omega).to_field()
    if via_forms != direct:
        raise AssertionError("componentwise and form-calculus routes disagree")
    # route 3: cleared modular field of the alpha-weighted volume
    z_mod = modular_field(p, omega)
    terms = [((1, key), z, alpha) for key, z in z_mod.comps.items()]
    terms += [((-1, key), z) for key, z in hamiltonian_field(alpha, p).comps.items()]
    via_modular = _collect(type(z_mod), p.n, 1, p.ring, terms)
    if via_modular != direct:
        raise AssertionError("weighted-modular route disagrees")
    return Check(direct.is_zero(), direct)


@dataclass
class Dim4Exactness:
    pfaffian_zero: bool
    dclosed: bool
    exact: bool
    pfaffian: CPoly


def pfaffian4(p: Bivector) -> CPoly:
    """Rank certificate on C^4: zero exactly when the rank is at most two."""
    if p.n != 4:
        raise ValueError("Pfaffian shortcut is specific to dimension 4")
    return _pfaffian(p, (1, 2, 3, 4))


def dim4_exactness(p: Bivector, omega: VolumeForm, vanish_point=None) -> Dim4Exactness:
    """Exactness on C^4 via the wedge-square and closedness of the lowered form.

    When P is Poisson and a point with P(z0) = 0 is supplied (checked
    exactly), the equivalence (wedge-square zero AND closed) == exact is
    asserted; otherwise the three facts are only reported.
    """
    _check_grade(p, "dim4_exactness")
    if p.n != 4:
        raise ValueError("this check applies to dimension 4 only")
    lowered = flat(p, omega)
    square = wedge(lowered, lowered)
    pf = pfaffian4(p)
    top = (1, 2, 3, 4)
    expected = pf.scale(omega.weight * omega.weight * 2)
    if square.component(top) != expected:
        raise AssertionError("wedge square disagrees with the Pfaffian")
    pfaffian_zero = square.is_zero()
    dclosed = partial_d(lowered).is_zero()
    exact = exactness_check(p, omega).exact
    if vanish_point is not None:
        vanishes = all(
            entry.evaluate_exact(vanish_point) == 0 for entry in p.comps.values()
        )
        if vanishes and (pfaffian_zero and dclosed) != exact and is_poisson(p):
            raise AssertionError("dimension-4 exactness equivalence failed")
    return Dim4Exactness(pfaffian_zero, dclosed, exact, pf)


def exact_hamiltonian_check(h: CPoly, p: Bivector, metric: HoloMetric) -> bool:
    """Is the Hamiltonian field of h exact?  Euclidean-metric formulation.

    Equivalent statements computed both ways: the curl field paired with the
    gradient of h, and the curl field applied to h directly.
    """
    if not metric.is_euclidean():
        raise ValueError("this check is stated for the euclidean metric only")
    if metric.n != p.n:
        raise ValueError("dimension mismatch")
    omega = metric.volume()
    curl_field = curl(p, omega).to_field()
    paired = metric.pair_fields(curl_field, gradient(h, metric))
    applied = apply_field(curl_field, h)
    if paired != applied:
        raise AssertionError("metric pairing and direct application disagree")
    return applied.is_zero()
