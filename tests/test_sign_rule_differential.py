"""Differential proof of the skew container's one sign rule.

`wedge`, `partial_d`, `sharp`, `curl`, `twisted_partial_d`, component reads
and `Bivector.entry` take every permutation sign from `calculus._contract`.
The reference below is the earlier code, which worked the same signs out by
its own bookkeeping: a merge walk, a complement loop and a two-case `entry`,
copied verbatim, with the wedge, exterior derivative and twisted derivative
that used them.  Wherever a result's grade is at most n the two agree
exactly.  Above n the reference kept a top-grade container (or refused);
the current code returns the empty container of the true grade.  The one
behaviour change is `component` on an unsorted index set: the reference read
zero there, the current code reads the stored component with its sign.
"""

from itertools import combinations, permutations
from typing import Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from holomult.calculus import (
    Form,
    IndexSet,
    Multivector,
    VolumeForm,
    _contract,
    curl,
    flat,
    partial_d,
    sharp,
    twisted_partial_d,
    wedge,
)
from holomult.poisson import Bivector
from holomult.poly import CPoly, RPoly, _BasePoly
from holomult.realify import RealBivector
from holomult.scalars import GaussianRational

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# -- the reference: the earlier sign bookkeeping, verbatim ---------------------


def _accumulate(out: Dict[IndexSet, CPoly], key: IndexSet, value: CPoly) -> None:
    """Add value to out[key], dropping the key when the sum is zero."""
    total = out[key] + value if key in out else value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def _merge_indices(left: IndexSet, right: IndexSet):
    """Sort the concatenation of two increasing index sets.

    Returns (sign, merged) or None when an index repeats.
    """
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            return None
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            # right[j] jumps over the remaining left entries
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def ref_component(self, *indices) -> CPoly:
    """The component at an index set, given as one tuple or as separate indices."""
    if len(indices) == 1 and not isinstance(indices[0], int):
        indices = indices[0]
    comp = self.comps.get(tuple(indices))
    return comp if comp is not None else self.ring.zero(self.n)


def ref_entry(self, i: int, j: int) -> CPoly:
    """Signed component P^{ij} for any index pair."""
    if i == j:
        return self.ring.zero(self.n)
    return ref_component(self, i, j) if i < j else -ref_component(self, j, i)


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
    grade = a.grade + b.grade
    if grade > a.n:
        # identically zero beyond the top grade; keep an empty top container
        return kind(a.n, a.n, {}, a.ring)
    out: Dict[IndexSet, CPoly] = {}
    for ka, va in a.comps.items():
        for kb, vb in b.comps.items():
            merged = _merge_indices(ka, kb)
            if merged is None:
                continue
            sign, key = merged
            _accumulate(out, key, va * vb if sign > 0 else -(va * vb))
    return kind(a.n, grade, out, a.ring)


def ref_partial_d(phi) -> Form:
    """Holomorphic exterior derivative of a form (a polynomial counts as a 0-form)."""
    if isinstance(phi, _BasePoly):
        nv = phi.nvars
        return Form(nv, 1, {(i,): phi.diff(i) for i in range(1, nv + 1)}, type(phi))
    if phi.grade >= phi.n:
        raise ValueError("exterior derivative of a top-grade form is zero by degree")
    out: Dict[IndexSet, CPoly] = {}
    for key, poly in phi.comps.items():
        for i in range(1, phi.n + 1):
            d = poly.diff(i)
            if not d:
                continue
            merged = _merge_indices((i,), key)
            if merged is None:
                continue
            sign, newkey = merged
            _accumulate(out, newkey, d if sign > 0 else -d)
    return Form(phi.n, phi.grade + 1, out, phi.ring)


def ref_sharp(phi, omega: VolumeForm):
    """Inverse of flat: raise an (n-p)-form to a p-multivector in the ring of phi."""
    n = omega.n
    inv_weight = GaussianRational(1) / omega.weight
    full = tuple(range(1, n + 1))
    if isinstance(phi, _BasePoly):
        # 0-form -> top multivector
        return Multivector(n, n, {full: phi.scale(inv_weight)}, type(phi))
    if phi.n != n:
        raise ValueError("dimension mismatch with volume form")
    grade = n - phi.grade
    if grade == 0:
        return ref_component(phi, full).scale(inv_weight)
    out: Dict[IndexSet, CPoly] = {}
    for key, poly in phi.comps.items():
        indices = tuple(i for i in full if i not in key)
        # flat of the basis multivector d_indices is sign * weight * dz^complement
        sign, complement = _contract(indices, full)
        if complement != key:
            raise AssertionError("complement bookkeeping is inconsistent")
        coeff = inv_weight if sign > 0 else -inv_weight
        out[indices] = poly.scale(coeff)
    return Multivector(n, grade, out, phi.ring)


def ref_curl(a, omega: VolumeForm):
    """Volume-form curl: sharp after exterior derivative after flat."""
    return ref_sharp(ref_partial_d(flat(a, omega)), omega)


def ref_twisted_partial_d(f, k: int, phi) -> Form:
    """Degree-weighted twisted derivative: f * d(phi) - (p - k) * df ^ phi."""
    if isinstance(phi, _BasePoly):
        d_phi = ref_partial_d(phi).scale(f)
        if k == 0:
            return d_phi
        return d_phi + ref_partial_d(f).scale(phi).scale(k)
    p = phi.grade
    if p == phi.n:
        # both d(phi) and df ^ phi overflow the top grade
        return Form(phi.n, p, {}, phi.ring)
    out = ref_partial_d(phi).scale(f)
    if p != k:
        correction = ref_wedge(ref_partial_d(f), phi).scale(p - k)
        out = out - correction
    return out


# -- generators ------------------------------------------------------------------

rings = st.sampled_from([CPoly, RPoly])
small = st.integers(-3, 3)


def coefficients(ring):
    if ring is CPoly:
        return st.builds(GaussianRational, small, small)
    return small


@st.composite
def polys(draw, ring, n):
    monomials = st.tuples(*[st.integers(0, 2)] * n)
    return ring(n, draw(st.dictionaries(monomials, coefficients(ring), max_size=3)))


@st.composite
def graded(draw, kind, ring, n, grade):
    """An object of the kind with a few random components; grade 0 is a polynomial."""
    if grade == 0:
        return draw(polys(ring, n))
    keys = list(combinations(range(1, n + 1), grade))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=4)) if keys else []
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


def inversions(order):
    return sum(a > b for i, a in enumerate(order) for b in order[i + 1:])


def assert_empty_of_grade(out, kind, ring, n, grade):
    assert type(out) is kind and out.ring is ring
    assert out.n == n and out.grade == grade and out.is_zero()


# -- the agreement -----------------------------------------------------------------


@SETTINGS
@given(st.data(), spaces(), st.sampled_from([Form, Multivector]))
def test_wedge_matches_the_reference(data, space, kind):
    n, ring, _ = space
    a = data.draw(graded(kind, ring, n, data.draw(st.integers(1, n))))
    b = data.draw(graded(kind, ring, n, data.draw(st.integers(1, n))))
    grade = a.grade + b.grade
    if grade <= n:
        assert wedge(a, b) == ref_wedge(a, b)
    else:
        assert_empty_of_grade(wedge(a, b), kind, ring, n, grade)


@SETTINGS
@given(st.data(), spaces())
def test_partial_d_matches_the_reference(data, space):
    n, ring, _ = space
    phi = data.draw(graded(Form, ring, n, data.draw(st.integers(0, n))))
    if isinstance(phi, _BasePoly) or phi.grade < n:
        assert partial_d(phi) == ref_partial_d(phi)
    else:
        assert_empty_of_grade(partial_d(phi), Form, ring, n, n + 1)


@SETTINGS
@given(st.data(), spaces())
def test_sharp_and_curl_match_the_reference(data, space):
    n, ring, omega = space
    phi = data.draw(graded(Form, ring, n, data.draw(st.integers(0, n))))
    assert sharp(phi, omega) == ref_sharp(phi, omega)
    a = data.draw(graded(Multivector, ring, n, data.draw(st.integers(1, n))))
    assert curl(a, omega) == ref_curl(a, omega)


@SETTINGS
@given(st.data(), spaces())
def test_twisted_partial_d_matches_the_reference(data, space):
    n, ring, _ = space
    f = data.draw(polys(ring, n))
    k = data.draw(st.integers(0, n + 1))
    phi = data.draw(graded(Form, ring, n, data.draw(st.integers(0, n))))
    if isinstance(phi, _BasePoly) or phi.grade < n:
        assert twisted_partial_d(f, k, phi) == ref_twisted_partial_d(f, k, phi)
    else:
        assert_empty_of_grade(twisted_partial_d(f, k, phi), Form, ring, n, n + 1)


@SETTINGS
@given(st.data(), st.integers(2, 6), st.sampled_from([Bivector, RealBivector]))
def test_entry_matches_the_reference_at_every_ordered_pair(data, n, cls):
    ring = cls.field.ring
    p = cls(n, data.draw(graded(Multivector, ring, n, 2)).comps)
    assert Bivector.entry is Multivector.component
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            got = p.entry(i, j)
            assert type(got) is ring
            assert got == ref_entry(p, i, j)


@SETTINGS
@given(st.data(), spaces(), st.sampled_from([Form, Multivector]))
def test_component_reads_every_order_with_its_sign(data, space, kind):
    n, ring, _ = space
    obj = data.draw(graded(kind, ring, n, data.draw(st.integers(1, n))))
    for key in combinations(range(1, n + 1), obj.grade):
        stored = ref_component(obj, key)
        assert obj.component(key) == stored
        for order in permutations(key):
            expected = -stored if inversions(order) % 2 else stored
            assert obj.component(order) == expected
            assert obj.component(*order) == expected
    if obj.grade > 1:
        repeated = (1,) * obj.grade
        assert obj.component(repeated).is_zero()
        assert type(obj.component(repeated)) is ring


@SETTINGS
@given(st.data(), spaces())
def test_sharp_inverts_flat_on_every_grade(data, space):
    n, ring, omega = space
    a = data.draw(graded(Multivector, ring, n, data.draw(st.integers(0, n))))
    assert sharp(flat(a, omega), omega) == a


def test_results_above_the_top_grade_keep_their_true_grade():
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    top = Form(2, 2, {(1, 2): z1 * z2})
    dz1 = Form(2, 1, {(1,): CPoly.const(2, 1)})
    assert_empty_of_grade(wedge(top, dz1), Form, CPoly, 2, 3)
    assert_empty_of_grade(partial_d(top), Form, CPoly, 2, 3)
    assert_empty_of_grade(twisted_partial_d(z1, 1, top), Form, CPoly, 2, 3)
    # the reference kept the top grade here
    assert ref_wedge(top, dz1).grade == 2
    assert ref_twisted_partial_d(z1, 1, top).grade == 2
