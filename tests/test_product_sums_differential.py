"""Differential proof of the product sums in `poisson`, `multipliers` and `divide_exact`.

`_triple_divergence_zero`, `pfaffian4`, route 3 of `bivector_lm_check`, the
bracket form of `hamiltonian_lm_residual`, the frame relations of
`inverse_from_frame` and each step of `divide_exact` add their products as
signed items of one kernel sum.  The references below are the earlier
code, which built each product with `*` and added the products pairwise:
the triple loop, the Pfaffian expression, `z_mod.scale(alpha) - z_alpha`,
`alpha * {h, f} - {alpha, f}`, the frame's Python `sum` of scaled fields and
the `queue - piece * divisor` loop, copied verbatim.  Verdicts must agree,
and every result in canonical storage (`_re`, `_im`, `_den`) and in type,
on Jacobian (Poisson) and generic quadratic (not Poisson) bivectors on
C^3..C^6, their real halves from `realify_poisson`, and drawn frames and
divisions in both rings.
"""

from fractions import Fraction
from itertools import combinations, permutations
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holomult.calculus import RealVectorField, VectorField, VolumeForm, lie_bracket
from holomult.multipliers import frame_volume, inverse_from_frame, is_inverse_multiplier
from holomult.poisson import (
    Bivector,
    _triple_divergence_zero,
    bivector_lm_check,
    hamiltonian_field,
    hamiltonian_lm_residual,
    modular_field,
    pfaffian4,
    poisson_bracket,
)
from holomult.poly import CPoly, RPoly, _BasePoly, _pack, _unpack
from holomult.realify import realify_poisson
from holomult.scalars import GaussianRational

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
FIELD_OF = {CPoly: VectorField, RPoly: RealVectorField}


# -- the reference: the earlier pairwise sums, verbatim ------------------------------


def ref_triple_divergence_zero(p):
    """Divergence of the triple products P^{li}P^{jk} + P^{lj}P^{ki} + P^{lk}P^{ij}."""
    for i in range(1, p.n + 1):
        for j in range(i + 1, p.n + 1):
            for k in range(j + 1, p.n + 1):
                total = p.ring.zero(p.n)
                for l in range(1, p.n + 1):
                    if l in (i, j, k):
                        continue
                    combo = (
                        p.component(l, i) * p.component(j, k)
                        + p.component(l, j) * p.component(k, i)
                        + p.component(l, k) * p.component(i, j)
                    )
                    total = total + combo.diff(l)
                if total:
                    return False
    return True


def ref_pfaffian4(p):
    return (
        p.component(1, 2) * p.component(3, 4)
        - p.component(1, 3) * p.component(2, 4)
        + p.component(1, 4) * p.component(2, 3)
    )


def ref_route3(alpha, p, omega):
    z_mod = modular_field(p, omega)
    z_alpha = hamiltonian_field(alpha, p)
    return z_mod.scale(alpha) - z_alpha


def ref_bracket_form(alpha, f, p, h):
    return alpha * poisson_bracket(h, f, p) - poisson_bracket(alpha, f, p)


def ref_inverse_from_frame(frame, structure, field, omega):
    n = field.n
    if len(frame) != n or len(structure) != n or any(len(row) != n for row in structure):
        raise ValueError("frame and structure matrix must both be n-sized")
    structure = [[f if isinstance(f, _BasePoly) else field.ring.const(n, f) for f in row]
                 for row in structure]
    for i in range(n):
        bracket = lie_bracket(field, frame[i])
        expected = sum((frame[k].scale(structure[i][k]) for k in range(n)), type(field).zero(n))
        if bracket != expected:
            raise ValueError(f"bracket relation fails for frame field #{i + 1}")
    if field.ring._sum(n, [(1, structure[k][k]) for k in range(n)]):
        raise ValueError("structure-function trace is nonzero")
    beta = frame_volume(frame, omega)
    check = is_inverse_multiplier(beta, field, omega)
    if not check.ok:
        raise AssertionError("frame volume failed the inverse-multiplier identity")
    return beta


def ref_lead(p):
    """The graded-lex largest exponent tuple, read through the kernel's `_unpack`."""
    return max((_unpack(m, p.nvars) for m in (*p._re, *p._im)), key=lambda m: (sum(m), m))


def ref_divide_exact(self, divisor):
    """The earlier division on exponent tuples; storage keys go through `_pack`."""
    self._check_compatible(divisor)
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    nvars = self.nvars
    dm = ref_lead(divisor)
    dr, di = divisor._re.get(_pack(dm), 0), divisor._im.get(_pack(dm), 0)
    # 1 / ((dr + i di) / den) == (dr - i di) * den / norm
    norm, dden = dr * dr + di * di, divisor._den
    queue = self
    pieces = []
    while queue:
        rm = ref_lead(queue)
        diff = tuple(map(sub, rm, dm))
        if any(e < 0 for e in diff):
            return None
        r, s = queue._re.get(_pack(rm), 0), queue._im.get(_pack(rm), 0)
        qr, qi = (r * dr + s * di) * dden, (s * dr - r * di) * dden
        key = _pack(diff)
        piece = self._reduced(nvars, {key: qr} if qr else {}, {key: qi} if qi else {},
                              queue._den * norm)
        pieces.append((1, piece))
        queue = queue - piece * divisor
    return self._sum(nvars, pieces)


# -- generators --------------------------------------------------------------------

small = st.integers(-3, 3)


def scalars(ring):
    """Small nonzero coefficients over mixed denominators; Gaussian ones for CPoly."""
    den = st.integers(1, 3)
    if ring is CPoly:
        return st.builds(lambda a, b, d: GaussianRational(a, b) / d, small, small, den).filter(bool)
    return st.builds(Fraction, small, den).filter(bool)


@st.composite
def polys(draw, ring, n, max_degree=2, min_terms=0, max_terms=3):
    monomials = st.lists(st.integers(0, n - 1), max_size=max_degree).map(
        lambda picks: tuple(picks.count(k) for k in range(n)))
    terms = draw(st.dictionaries(monomials, scalars(ring), min_size=min_terms, max_size=max_terms))
    return ring(n, terms)


def _perm_sign(seq):
    sign = 1
    for a, b in combinations(seq, 2):
        if a > b:
            sign = -sign
    return sign


def jacobian_bivector(casimirs, n):
    """P^{ij} = sign(i, j, K) det(dC_r / dz^K), K the complement of {i, j}: Poisson."""
    grads = [[c.diff(k) for k in range(1, n + 1)] for c in casimirs]
    comps = {}
    for i, j in combinations(range(1, n + 1), 2):
        rest = [k for k in range(1, n + 1) if k not in (i, j)]
        det = CPoly.zero(n)
        for perm in permutations(range(len(rest))):
            term = CPoly.const(n, _perm_sign(perm))
            for row, col in enumerate(perm):
                term = term * grads[row][rest[col] - 1]
            det = det + term
        comps[(i, j)] = det.scale(_perm_sign([i, j] + rest))
    return Bivector(n, comps)


@st.composite
def complex_bivectors(draw, n, jacobian=None):
    """(bivector, Casimirs): a Jacobian bivector of n - 2 Casimirs, or a generic
    quadratic one with no Casimir list."""
    if draw(st.booleans()) if jacobian is None else jacobian:
        casimirs = [draw(polys(CPoly, n, max_degree=2, min_terms=1, max_terms=2))
                    for _ in range(n - 2)]
        return jacobian_bivector(casimirs, n), casimirs
    keys = list(combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=6))
    return Bivector(n, {key: draw(polys(CPoly, n)) for key in chosen}), None


@st.composite
def bivectors(draw, real=None, jacobian=None):
    """(bivector, Casimirs or None, volume form) on C^3..C^6, or a real half of one
    on C^3 (a bivector on R^6, with no Casimir list)."""
    real = draw(st.booleans()) if real is None else real
    n = 3 if real else draw(st.integers(3, 6))
    p, casimirs = draw(complex_bivectors(n, jacobian))
    if real:
        p, casimirs = draw(st.sampled_from(realify_poisson(p))), None
    return p, casimirs, VolumeForm(p.n, 1 if real else draw(st.sampled_from([1, 2, GaussianRational(1, 1)])))


def same(new, ref):
    assert type(new) is type(ref)
    assert new == ref
    if isinstance(new, _BasePoly):
        assert (new.nvars, new._re, new._im, new._den) == (ref.nvars, ref._re, ref._im, ref._den)
    else:
        assert new.ring is ref.ring and (new.n, new.grade) == (ref.n, ref.grade)
        assert new.comps.keys() == ref.comps.keys()
        for key, comp in new.comps.items():
            same(comp, ref.comps[key])


def outcome(call, *args):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", call(*args)
    except (ValueError, TypeError, AssertionError) as exc:
        return type(exc), str(exc)


# -- the Poisson sums ------------------------------------------------------------------


@SETTINGS
@given(bivectors())
def test_triple_divergence_verdicts_match(drawn):
    p, casimirs, _ = drawn
    verdict = _triple_divergence_zero(p)
    assert verdict is ref_triple_divergence_zero(p)
    if casimirs is not None:
        # a Jacobian bivector is Poisson and divergence-free, hence exact
        assert verdict is True


def test_triple_divergence_sees_both_verdicts():
    # on C^3 no index l lies outside the one triple, so both verdicts need C^4
    z = [CPoly.var(4, k) for k in range(1, 5)]
    one = CPoly.const(4, 1)
    constant = Bivector(4, {(1, 2): one, (3, 4): one.scale(2)})
    # triple (1, 2, 3), l = 4: d/dz^4 (P^{43} P^{12}) = -1
    skewed = Bivector(4, {(1, 2): z[3], (3, 4): one})
    for p, verdict in ((constant, True), (skewed, False)):
        assert _triple_divergence_zero(p) is verdict
        assert ref_triple_divergence_zero(p) is verdict


@SETTINGS
@given(st.data(), st.booleans())
def test_pfaffian_matches_in_canonical_storage(data, real):
    if real:
        # a real half of a bivector on C^2 lives on R^4
        p = data.draw(st.sampled_from(realify_poisson(data.draw(complex_bivectors(2))[0])))
    else:
        p = data.draw(complex_bivectors(4))[0]
    same(pfaffian4(p), ref_pfaffian4(p))


@SETTINGS
@given(st.data(), bivectors())
def test_route3_matches_the_checked_residual(data, drawn):
    p, _, omega = drawn
    alpha = data.draw(polys(p.ring, p.n, min_terms=1))
    check = bivector_lm_check(alpha, p, omega)
    same(check.residual, ref_route3(alpha, p, omega))


@SETTINGS
@given(st.data(), bivectors(real=False, jacobian=True))
def test_bracket_form_matches_the_residual(data, drawn):
    p, casimirs, omega = drawn
    # a Jacobian bivector's modular field is zero, the Hamiltonian field of any Casimir
    h = data.draw(st.sampled_from(casimirs + [CPoly.zero(p.n)]))
    alpha = data.draw(polys(CPoly, p.n))
    f = data.draw(polys(CPoly, p.n))
    residual = hamiltonian_lm_residual(alpha, f, p, omega, h)
    same(residual, ref_bracket_form(alpha, f, p, h))
    same(residual, hamiltonian_lm_residual(alpha, f, p, omega))


# -- the frame relations ---------------------------------------------------------------


def _inverse(matrix, one):
    """Gauss-Jordan inverse of a square matrix of exact scalars with a nonzero diagonal
    and zeros below it."""
    n = len(matrix)
    rows = [list(row) + [one if i == j else one * 0 for j in range(n)] for i, row in enumerate(matrix)]
    for col in reversed(range(n)):
        inv = one / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(col):
            factor = rows[r][col]
            rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


@st.composite
def frames(draw):
    """(frame, structure, field): Z_i = sum_j A_ij d/dz^j for a constant upper-triangular
    invertible A, so [Z, Z_i] = sum_m f_i^m Z_m with f_i^m = -sum_{j,k} A_ij dZ^k/dz^j
    (A^-1)_km, of trace -div Z.  Z is divergence-free when each Z^k skips z^k; a
    constant entry is given as a scalar at random."""
    ring = draw(st.sampled_from([CPoly, RPoly]))
    n = draw(st.integers(1, 4))
    one = GaussianRational(1) if ring is CPoly else Fraction(1)
    entry = scalars(ring) | st.just(one * 0)
    a = [[draw(scalars(ring)) if i == j else draw(entry) if j > i else one * 0 for j in range(n)]
         for i in range(n)]
    a_inv = _inverse(a, one)
    kind, free = FIELD_OF[ring], draw(st.booleans())
    comps = [draw(polys(ring, n)) for _ in range(n)]
    if free:
        comps = [ring(n, {m: c for m, c in comp.terms.items() if not m[k]}) for k, comp in enumerate(comps)]
    field = kind(n, comps)
    frame = [kind(n, [ring.const(n, a[i][j]) for j in range(n)]) for i in range(n)]
    jac = [[comps[k].diff(j + 1) for k in range(n)] for j in range(n)]
    structure = []
    for i in range(n):
        row = []
        for m in range(n):
            f = ring._sum(n, [(1, jac[j][k].scale(-a[i][j] * a_inv[k][m]))
                              for j in range(n) for k in range(n)])
            constant = not any(any(mono) for mono in f.terms)
            row.append(f.terms.get((0,) * n, one * 0) if constant and draw(st.booleans()) else f)
        structure.append(row)
    return frame, structure, field


@SETTINGS
@given(st.data(), frames())
def test_inverse_from_frame_matches(data, drawn):
    frame, structure, field = drawn
    omega = VolumeForm(field.n)
    new, ref = outcome(inverse_from_frame, frame, structure, field, omega), \
        outcome(ref_inverse_from_frame, frame, structure, field, omega)
    assert new[0] == ref[0]
    if new[0] == "ok":
        same(new[1], ref[1])
    else:
        assert new[1] == ref[1]
    # a perturbed entry breaks its bracket relation, with the same refusal
    i, k = data.draw(st.integers(0, field.n - 1)), data.draw(st.integers(0, field.n - 1))
    structure = [list(row) for row in structure]
    structure[i][k] = field.ring.var(field.n, 1) + structure[i][k]
    assert outcome(inverse_from_frame, frame, structure, field, omega) == \
        outcome(ref_inverse_from_frame, frame, structure, field, omega)


# -- the division step -----------------------------------------------------------------


@SETTINGS
@given(st.data(), st.sampled_from([CPoly, RPoly]), st.integers(1, 3), st.booleans())
def test_divide_exact_matches(data, ring, n, divisible):
    divisor = data.draw(polys(ring, n, min_terms=1).filter(bool))
    if ring is CPoly and data.draw(st.booleans()):
        # a Gaussian leading coefficient
        divisor = divisor + CPoly.var(n, 1) ** 3 * CPoly.const(n, GaussianRational(1, 2))
    quotient = data.draw(polys(ring, n, max_degree=3, max_terms=4))
    dividend = quotient * divisor
    if not divisible:
        dividend = dividend + data.draw(polys(ring, n, max_degree=3, min_terms=1).filter(bool))
    new, ref = dividend.divide_exact(divisor), ref_divide_exact(dividend, divisor)
    if ref is None:
        assert new is None
    else:
        same(new, ref)
    if divisible:
        same(new, quotient)


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_divide_exact_edge_cases_match(ring):
    x1, x2 = ring.var(2, 1), ring.var(2, 2)
    scalar = GaussianRational(3, -2) if ring is CPoly else Fraction(-3, 5)
    for dividend, divisor in (
        (ring.zero(2), x1 + 1),
        (x1 * x2 + x2, x1 + 1),
        (x2, x1 + 1),
        ((x1 + x2) ** 4, (x1 + x2) ** 2),
        ((x1 - x2) ** 3 * ring.const(2, scalar), ring.const(2, scalar)),
        (x1 ** 2 + 1, x1 + 1),
    ):
        new, ref = dividend.divide_exact(divisor), ref_divide_exact(dividend, divisor)
        assert (new is None) == (ref is None)
        if ref is not None:
            same(new, ref)


@pytest.mark.parametrize("position", [0, 1])
def test_inverse_from_frame_refuses_a_frame_field_of_another_class_anywhere(position):
    # every bracket is taken before the relations are summed, so a mismatched frame
    # field is refused by lie_bracket wherever it stands
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    traceless = VectorField(2, [z1, -z2])
    frame = [VectorField.coordinate(2, 1), VectorField.coordinate(2, 2)]
    structure = [[-1, 0], [0, 1]]
    for stranger in (RealVectorField.coordinate(2, 1), VectorField.coordinate(3, 1)):
        mixed = list(frame)
        mixed[position] = stranger
        with pytest.raises(ValueError, match="^vector fields differ in class or dimension$"):
            inverse_from_frame(mixed, structure, traceless, VolumeForm(2))
