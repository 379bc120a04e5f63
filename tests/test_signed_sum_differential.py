"""Differential proof of the one signed sum: `_BasePoly._sum` and `calculus._collect`.

Every calculus result is gathered as signed terms per index set and added
once by the kernel's `_sum`.  The reference below is the earlier code,
which added term by term: `_accumulate` and the loop bodies of `wedge`,
`partial_d`, `interior_product`, `divergence`, `pairing`, `apply_field`,
`flat`, `sharp`, the container's `+`/`-`, `jacobiator`, the metric's
`_raise_index` and `pair_fields`, copied verbatim.  The two must agree
exactly, in both rings, on every grade and for n = 1..6.  `_sum` itself is
checked against a left fold of `+` and `-` in canonical storage.
"""

from fractions import Fraction
from itertools import combinations
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holomult.calculus import (
    Form,
    IndexSet,
    Multivector,
    RealVectorField,
    VectorField,
    VolumeForm,
    _check_rings,
    _contract,
    _merge_indices,
    apply_field,
    divergence,
    flat,
    interior_product,
    pairing,
    partial_d,
    sharp,
    wedge,
)
from holomult.metric import HoloMetric, _raise_index, gradient
from holomult.poisson import Bivector, bivector_lm_check, jacobiator
from holomult.poly import CPoly, RPoly, _BasePoly
from holomult.realify import RealBivector
from holomult.scalars import GaussianRational

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# -- the reference: the earlier term-by-term sums, verbatim ----------------------


def _accumulate(out: Dict[IndexSet, CPoly], key: IndexSet, value: CPoly) -> None:
    """Add value to out[key], dropping the key when the sum is zero."""
    total = out[key] + value if key in out else value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def ref_add(self, other):
    if type(other) is not type(self) or other._space() != self._space():
        raise ValueError("can only add matching graded objects")
    out = dict(self.comps)
    for k, v in other.comps.items():
        _accumulate(out, k, v)
    return self._like(out)


def ref_sub(self, other):
    return ref_add(self, -other)


def ref_apply_field(field, f):
    """Derivative of f along the field: sum of Z^i * df/dz^i."""
    if f.nvars != field.n:
        raise ValueError("dimension mismatch between field and function")
    out = field.ring.zero(field.n)
    for i, comp in enumerate(field.components, start=1):
        if comp:
            out = out + comp * f.diff(i)
    return out


def ref_divergence(a, omega):
    """Divergence of a multivector of grade >= 1; equals `curl(a, omega)` on every grade."""
    if a.n != omega.n:
        raise ValueError("dimension mismatch between field and volume form")
    out: Dict[IndexSet, CPoly] = {}  # grade 0 lands under the key ()
    last = a.grade - 1
    for key, comp in a.comps.items():
        for pos, l in enumerate(key):
            d = comp.diff(l)
            if d:
                # the last - pos indices after l in key are those of K above l
                _accumulate(out, key[:pos] + key[pos + 1:], -d if (last - pos) % 2 else d)
    if a.grade == 1:
        return out.get((), a.ring.zero(a.n))
    return Multivector(a.n, a.grade - 1, out, a.ring)


def ref_wedge(a, b):
    """Wedge product of two forms or two multivectors (scalars act by product)."""
    if isinstance(a, _BasePoly) and isinstance(b, _BasePoly):
        return a * b
    if isinstance(a, _BasePoly):
        return b.scale(a)
    if isinstance(b, _BasePoly):
        return a.scale(b)
    kind = Form if isinstance(a, Form) else Multivector
    if not isinstance(b, kind) or a.n != b.n:
        raise ValueError("wedge needs matching object kinds and dimensions")
    _check_rings(a, b)
    out: Dict[IndexSet, CPoly] = {}
    for ka, va in a.comps.items():
        for kb, vb in b.comps.items():
            merged = _merge_indices(ka, kb)
            if merged is None:
                continue
            sign, key = merged
            _accumulate(out, key, va * vb if sign > 0 else -(va * vb))
    return kind(a.n, a.grade + b.grade, out, a.ring)


def ref_partial_d(phi):
    """Holomorphic exterior derivative of a form (a polynomial counts as a 0-form)."""
    if isinstance(phi, _BasePoly):
        nv = phi.nvars
        return Form(nv, 1, {(i,): phi.diff(i) for i in range(1, nv + 1)}, type(phi))
    out: Dict[IndexSet, CPoly] = {}
    for key, poly in phi.comps.items():
        for i in range(1, phi.n + 1):
            # an index already in key gives zero: skip it before differentiating
            merged = _merge_indices((i,), key)
            if merged is None:
                continue
            d = poly.diff(i)
            if d:
                sign, newkey = merged
                _accumulate(out, newkey, d if sign > 0 else -d)
    return Form(phi.n, phi.grade + 1, out, phi.ring)


def ref_interior_product(a, phi):
    """Contraction of a multivector into a form, or of a form into a multivector."""
    if isinstance(a, _BasePoly):
        if isinstance(phi, _BasePoly):
            return a * phi
        return phi.scale(a)
    if isinstance(phi, _BasePoly):
        return a.ring.zero(a.n)
    if a.n != phi.n:
        raise ValueError("dimension mismatch in interior product")
    if isinstance(a, Form) == isinstance(phi, Form):
        raise ValueError("interior product needs one multivector and one form")
    _check_rings(a, phi)
    if a.grade > phi.grade:
        return phi.ring.zero(a.n)
    result_grade = phi.grade - a.grade
    out: Dict[IndexSet, CPoly] = {}  # grade 0 lands under the key ()
    for ka, va in a.comps.items():
        for kf, vf in phi.comps.items():
            contracted = _contract(ka, kf)
            if contracted is not None:
                sign, rest = contracted
                _accumulate(out, rest, va * vf if sign > 0 else -(va * vf))
    if result_grade == 0:
        return out.get((), phi.ring.zero(a.n))
    kind = Form if isinstance(phi, Form) else Multivector
    return kind(a.n, result_grade, out, phi.ring)


def ref_pairing(phi, a):
    """Duality pairing of a form with an equal-grade multivector."""
    if isinstance(phi, _BasePoly) or isinstance(a, _BasePoly):
        if isinstance(phi, _BasePoly) and isinstance(a, _BasePoly):
            return phi * a
        raise ValueError("pairing needs equal grades and dimensions")
    if phi.grade != a.grade or phi.n != a.n:
        raise ValueError("pairing needs equal grades and dimensions")
    _check_rings(phi, a)
    out = phi.ring.zero(phi.n)
    for key, poly in phi.comps.items():
        other = a.comps.get(key)
        if other is not None:
            out = out + poly * other
    return out


def ref_flat(a, omega):
    """Lower a multivector to a form by contracting into the volume form."""
    n = omega.n
    ring = type(a) if isinstance(a, _BasePoly) else a.ring
    top = Form(n, n, {tuple(range(1, n + 1)): ring.const(n, omega.weight)}, ring)
    if isinstance(a, _BasePoly):
        return top.scale(a)
    if a.n != n:
        raise ValueError("dimension mismatch with volume form")
    return ref_interior_product(a, top)


def ref_sharp(phi, omega):
    """Inverse of flat: raise an (n-p)-form to a p-multivector in the ring of phi."""
    n = omega.n
    ring = type(phi) if isinstance(phi, _BasePoly) else phi.ring
    inv_weight = ring.const(n, GaussianRational(1) / omega.weight)
    top = Multivector(n, n, {tuple(range(1, n + 1)): inv_weight}, ring)
    if isinstance(phi, _BasePoly):
        return top.scale(phi)
    if phi.n != n:
        raise ValueError("dimension mismatch with volume form")
    raised = ref_interior_product(phi, top)
    p = n - phi.grade
    return -raised if p * (n - p) % 2 else raised


def ref_jacobiator(p):
    """Half the Schouten bracket, sum_l X_{z^l} ^ dP/dz^l; zero exactly for Poisson."""
    n, ring = p.n, p.ring
    out = Multivector(n, 3, {}, ring)
    if n < 3:
        return out
    for l in range(1, n + 1):
        d_l = Multivector(n, 2, {key: entry.diff(l) for key, entry in p.comps.items()}, ring)
        x_l = ref_interior_product(ref_partial_d(ring.var(n, l)), p).to_field()
        out = ref_add(out, ref_wedge(x_l, d_l))
    return out


def ref_raise_index(f, inverse, field_class):
    """The field_class field with components sum_i inverse[i][j] * df/dz^i."""
    n = len(inverse)
    if f.nvars != n:
        raise ValueError("dimension mismatch with metric")
    partials = [f.diff(i) for i in range(1, n + 1)]
    comps = []
    for j in range(n):
        acc = field_class.ring.zero(n)
        for i in range(n):
            if inverse[i][j]:
                acc = acc + partials[i].scale(inverse[i][j])
        comps.append(acc)
    return field_class(n, comps)


def ref_pair_fields(self, v, w):
    """g(V, W) as a polynomial."""
    if v.n != self.n or w.n != self.n:
        raise ValueError("dimension mismatch with metric")
    vc, wc = v.components, w.components
    out = CPoly.zero(self.n)
    for i in range(self.n):
        for j in range(self.n):
            if self.g[i][j]:
                out = out + (vc[i] * wc[j]).scale(self.g[i][j])
    return out


# -- generators ------------------------------------------------------------------

rings = st.sampled_from([CPoly, RPoly])
small = st.integers(-3, 3)
FIELD_OF = {CPoly: VectorField, RPoly: RealVectorField}


def scalars(ring):
    """Small coefficients over mixed denominators; Gaussian ones for CPoly."""
    den = st.integers(1, 4)
    if ring is CPoly:
        return st.builds(lambda a, b, d: GaussianRational(a, b) / d, small, small, den)
    return st.builds(Fraction, small, den)


@st.composite
def polys(draw, ring, n, max_terms=3):
    monomials = st.tuples(*[st.integers(0, 2)] * n)
    return ring(n, draw(st.dictionaries(monomials, scalars(ring), max_size=max_terms)))


@st.composite
def graded(draw, kind, ring, n, grade):
    """An object of the kind with a few random components; grade 0 is a polynomial."""
    if grade == 0:
        return draw(polys(ring, n))
    keys = list(combinations(range(1, n + 1), grade))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=5)) if keys else []
    return kind(n, grade, {key: draw(polys(ring, n)) for key in chosen}, ring)


@st.composite
def weights(draw, ring):
    """A nonzero volume weight; the real ring needs a real one."""
    im = draw(small) if ring is CPoly else 0
    re = draw(small.filter(bool) if not im else small)
    return GaussianRational(re, im) / draw(st.integers(1, 3))


@st.composite
def spaces(draw):
    n = draw(st.integers(1, 6))
    ring = draw(rings)
    return n, ring, VolumeForm(n, draw(weights(ring)))


GAUSSIAN_INTEGERS = [GaussianRational(a, b) for a in range(-2, 3) for b in (-1, 0, 1)]


@st.composite
def square_metrics(draw, n):
    """g = A^T A for an upper-triangular A with a nonzero diagonal: det g = det(A)^2."""
    entries = st.sampled_from(GAUSSIAN_INTEGERS)
    a = [[draw(entries.filter(bool) if i == j else entries) if i <= j else GaussianRational(0)
          for j in range(n)] for i in range(n)]
    return HoloMetric([[sum((a[k][i] * a[k][j] for k in range(n)), GaussianRational(0))
                        for j in range(n)] for i in range(n)])


def signed_lists(ring, n):
    return st.lists(st.tuples(st.sampled_from([1, -1]), polys(ring, n, max_terms=4)), max_size=6)


def same(new, ref):
    assert type(new) is type(ref)
    assert new == ref
    if isinstance(new, _BasePoly):
        assert (new._re, new._im, new._den) == (ref._re, ref._im, ref._den)
    else:
        assert new.ring is ref.ring and (new.n, new.grade) == (ref.n, ref.grade)


# -- the kernel sum ------------------------------------------------------------


def left_fold(ring, n, signed):
    total = ring.zero(n)
    for sign, p in signed:
        total = total + p if sign > 0 else total - p
    return total


@SETTINGS
@given(st.data(), st.integers(1, 4), rings)
def test_sum_equals_a_left_fold_in_canonical_storage(data, n, ring):
    signed = data.draw(signed_lists(ring, n))
    same(ring._sum(n, signed), left_fold(ring, n, signed))


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_sum_edge_cases(ring):
    n = 2
    x, y = ring.var(n, 1), ring.var(n, 2)
    third = x.scale(Fraction(1, 3)) + y.scale(Fraction(5, 2))
    cases = [
        [],
        [(-1, third)],
        [(1, third), (-1, third)],
        [(1, third), (1, x.scale(Fraction(-1, 3))), (1, y.scale(Fraction(-5, 2)))],
        [(1, x.scale(Fraction(1, 6))), (-1, y.scale(Fraction(3, 10))), (1, x.scale(Fraction(5, 6)))],
        [(1, ring.zero(n)), (-1, x), (1, ring.zero(n))],
    ]
    if ring is CPoly:
        half_gauss = x.scale(GaussianRational(1, 1) / 2)
        cases.append([(1, half_gauss), (-1, y.scale(GaussianRational(0, 1) / 3)), (1, half_gauss)])
        cases.append([(1, half_gauss), (-1, half_gauss.conjugate()), (-1, x.scale(GaussianRational(0, 1)))])
    for signed in cases:
        same(ring._sum(n, signed), left_fold(ring, n, signed))
    assert ring._sum(n, []).is_zero() and type(ring._sum(n, [])) is ring
    assert ring._sum(n, [(1, third)]) is third
    assert ring._sum(n, [(1, third), (1, ring.zero(n))]) is third
    assert ring._sum(n, [(-1, third)]) == -third


# -- the calculus against the reference ----------------------------------------------


@SETTINGS
@given(st.data(), spaces(), st.sampled_from([Form, Multivector]))
def test_wedge_and_container_sums_match(data, space, kind):
    n, ring, _ = space
    a = data.draw(graded(kind, ring, n, data.draw(st.integers(0, n))))
    b = data.draw(graded(kind, ring, n, data.draw(st.integers(0, n))))
    same(wedge(a, b), ref_wedge(a, b))
    if not isinstance(a, _BasePoly):
        c = data.draw(graded(kind, ring, n, a.grade))
        for other in (c, a, -a):
            same(a + other, ref_add(a, other))
            same(a - other, ref_sub(a, other))


@SETTINGS
@given(st.data(), spaces())
def test_partial_d_and_divergence_match_on_every_grade(data, space):
    n, ring, omega = space
    phi = data.draw(graded(Form, ring, n, data.draw(st.integers(0, n))))
    same(partial_d(phi), ref_partial_d(phi))
    a = data.draw(graded(Multivector, ring, n, data.draw(st.integers(1, n))))
    same(divergence(a, omega), ref_divergence(a, omega))


@SETTINGS
@given(st.data(), spaces(), st.booleans())
def test_interior_product_matches_both_ways(data, space, into_form):
    n, ring, _ = space
    inner, outer = (Multivector, Form) if into_form else (Form, Multivector)
    a = data.draw(graded(inner, ring, n, data.draw(st.integers(0, n))))
    phi = data.draw(graded(outer, ring, n, data.draw(st.integers(0, n))))
    same(interior_product(a, phi), ref_interior_product(a, phi))


@SETTINGS
@given(st.data(), spaces())
def test_pairing_and_apply_field_match(data, space):
    n, ring, _ = space
    grade = data.draw(st.integers(0, n))
    phi = data.draw(graded(Form, ring, n, grade))
    a = data.draw(graded(Multivector, ring, n, grade))
    same(pairing(phi, a), ref_pairing(phi, a))
    field = FIELD_OF[ring](n, [data.draw(polys(ring, n)) for _ in range(n)])
    f = data.draw(polys(ring, n, max_terms=4))
    same(apply_field(field, f), ref_apply_field(field, f))


@SETTINGS
@given(st.data(), spaces())
def test_flat_and_sharp_match_on_every_grade(data, space):
    n, ring, omega = space
    a = data.draw(graded(Multivector, ring, n, data.draw(st.integers(0, n))))
    same(flat(a, omega), ref_flat(a, omega))
    phi = data.draw(graded(Form, ring, n, data.draw(st.integers(0, n))))
    same(sharp(phi, omega), ref_sharp(phi, omega))


@SETTINGS
@given(st.data(), st.integers(2, 6), st.sampled_from([Bivector, RealBivector]))
def test_jacobiator_matches(data, n, cls):
    ring = cls.field.ring
    p = cls(n, data.draw(graded(Multivector, ring, n, 2)).comps)
    same(jacobiator(p), ref_jacobiator(p))


@SETTINGS
@given(st.data(), st.integers(1, 6))
def test_gradient_and_pair_fields_match(data, n):
    metric = data.draw(square_metrics(n))
    f = data.draw(polys(CPoly, n, max_terms=4))
    same(gradient(f, metric), ref_raise_index(f, metric.ginv, VectorField))
    v, w = (VectorField(n, [data.draw(polys(CPoly, n)) for _ in range(n)]) for _ in range(2))
    same(metric.pair_fields(v, w), ref_pair_fields(metric, v, w))
    # the real ring: a rational inverse raises into a RealVectorField as before
    rationals = st.sampled_from([Fraction(a, d) for a in range(-2, 3) for d in (1, 2, 3)])
    inverse = [[data.draw(rationals) for _ in range(n)] for _ in range(n)]
    u = data.draw(polys(RPoly, n, max_terms=4))
    same(_raise_index(u, inverse, RealVectorField), ref_raise_index(u, inverse, RealVectorField))
    # and the metric still refuses real data
    with pytest.raises((TypeError, ValueError)):
        gradient(u, metric)
    with pytest.raises((TypeError, ValueError)):
        ref_raise_index(u, metric.ginv, VectorField)
    real = RealVectorField(n, [RPoly.var(n, 1)] * n)
    with pytest.raises((TypeError, ValueError)):
        metric.pair_fields(real, real)
    with pytest.raises((TypeError, ValueError)):
        ref_pair_fields(metric, real, real)


@pytest.mark.parametrize("op", [
    lambda om: flat(Multivector(2, 1, {}, RPoly), om),
    lambda om: sharp(Form(2, 1, {}, RPoly), om),
    lambda om: ref_flat(Multivector(2, 1, {}, RPoly), om),
    lambda om: ref_sharp(Form(2, 1, {}, RPoly), om),
    lambda om: Multivector(2, 1, {}, RPoly).scale(om.weight),
])
def test_a_non_real_weight_is_refused_on_the_real_side_even_when_empty(op):
    with pytest.raises(ValueError, match="RPoly coefficients must be real"):
        op(VolumeForm(2, GaussianRational(0, 1)))


# -- work counts -----------------------------------------------------------------


def dense_bivector(n):
    z = [CPoly.var(n, k) for k in range(1, n + 1)]
    return Bivector(n, {(i, j): z[i - 1] * z[j - 1] + z[(i + j) % n].scale(i - j)
                        for i in range(1, n + 1) for j in range(i + 1, n + 1)})


def test_jacobiator_and_bivector_lm_check_add_no_polynomial_pairwise(monkeypatch):
    n = 6
    p = dense_bivector(n)
    alpha = CPoly.var(n, 1) + CPoly.const(n, 2)
    omega = VolumeForm(n)
    expected_defect = ref_jacobiator(p)

    calls = []
    add = _BasePoly.__add__

    def counting_add(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(_BasePoly, "__add__", counting_add)
    monkeypatch.setattr(_BasePoly, "__radd__", counting_add)
    assert jacobiator(p) == expected_defect
    in_jacobiator = len(calls)
    bivector_lm_check(alpha, p, omega)
    assert (in_jacobiator, len(calls) - in_jacobiator) == (0, 0)
