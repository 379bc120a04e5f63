"""Differential tests of the Schouten-form Jacobiator and the one-rule realification.

`jacobiator` computes half the Schouten bracket as one gather: each
entry-times-partial term P^K dP^{K'}/dz^l is added once into its index set's
sum, with no Hamiltonian field, partial bivector or wedge built in between.
`realify_field`, `realify_poisson` and the conj-scaled fields all come from
one grade-generic realification, d/dz^k = (d/dx^k - i d/dy^k)/2.  The
references below are the formulas they replace: the cyclic sum of
coordinate brackets over every triple i < j < k, with each bracket
differentiating both arguments for every entry; the realification that
splits every index pair through signed `entry()` copies; and the
hand-written grade-1 block rules (X, Y) and (Y, -X).  They are kept here
only, as references.
"""

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from holomult.calculus import Multivector, RealVectorField, VectorField
from holomult.poisson import Bivector, is_poisson, jacobiator
from holomult.poly import CPoly, RPoly
from holomult.realify import (
    RealBivector, conj_product_split, conj_scaled_imag_field, conj_scaled_real_field,
    realify_field, realify_poisson,
)
from holomult.scalars import GaussianRational

# No shrink phase: a failing example is reported as drawn, since each shrink
# step reruns the reference, which takes up to a second on C^6.
SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))

small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2]))


# -- the references ------------------------------------------------------------


def ref_bracket(f, g, p):
    out = p.ring.zero(p.n)
    for (i, j), comp in p.comps.items():
        out = out + comp * (f.diff(i) * g.diff(j) - f.diff(j) * g.diff(i))
    return out


def ref_jacobiator(p):
    comps = {}
    ring = p.ring
    coords = [ring.var(p.n, i) for i in range(1, p.n + 1)]
    for i in range(1, p.n + 1):
        for j in range(i + 1, p.n + 1):
            for k in range(j + 1, p.n + 1):
                zi, zj, zk = coords[i - 1], coords[j - 1], coords[k - 1]
                comps[(i, j, k)] = (
                    ref_bracket(p.entry(i, j), zk, p)
                    + ref_bracket(p.entry(j, k), zi, p)
                    + ref_bracket(p.entry(k, i), zj, p)
                )
    return Multivector(p.n, 3, comps, ring)


def ref_realify_poisson(p):
    n = p.n
    quarter = Fraction(1, 4)
    splits = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            splits[(i, j)] = p.entry(i, j).realify_split()
    re_comps, im_comps = {}, {}
    for (i, j), (re, im) in splits.items():
        re_comps[(i, j)] = re.scale(quarter)
        re_comps[(n + i, n + j)] = re.scale(-quarter)
        im_comps[(i, j)] = im.scale(quarter)
        im_comps[(n + i, n + j)] = im.scale(-quarter)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            re, im = splits[(i, j)] if i < j else splits[(j, i)]
            sign = 1 if i < j else -1
            re_comps[(i, n + j)] = im.scale(sign * quarter)
            im_comps[(i, n + j)] = re.scale(-sign * quarter)
    return RealBivector(2 * n, re_comps), RealBivector(2 * n, im_comps)


def ref_real_attached(splits):
    """The field (X, Y) from per-component (re, im) = (X^k, Y^k)."""
    return RealVectorField(2 * len(splits), [re for re, _ in splits] + [im for _, im in splits])


def ref_imag_attached(splits):
    """The field (Y, -X) from per-component (re, im) = (X^k, Y^k)."""
    return RealVectorField(2 * len(splits), [im for _, im in splits] + [-re for re, _ in splits])


def ref_realify_field(field):
    splits = [comp.realify_split() for comp in field.components]
    return ref_real_attached(splits), ref_imag_attached(splits)


def ref_conj_scaled_fields(f, w):
    fx, fy = f.realify_split()
    splits = []
    for comp in w.components:
        sx, sy = comp.realify_split()
        splits.append((fx * sx + fy * sy, fx * sy - fy * sx))
    return ref_real_attached(splits), ref_imag_attached(splits)


# -- strategies ----------------------------------------------------------------


@st.composite
def polys(draw, ring, n, max_terms=3):
    monos = st.tuples(*[st.integers(0, 2)] * n)
    terms = draw(st.dictionaries(monos, st.tuples(small, small), max_size=max_terms))
    if ring is CPoly:
        return CPoly(n, {m: GaussianRational(re, im) for m, (re, im) in terms.items()})
    return RPoly(n, {m: re for m, (re, _) in terms.items()})


@st.composite
def bivectors(draw, ring, n):
    keys = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    stored = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    comps = {key: draw(polys(ring, n)) for key in stored}
    cls = Bivector if ring is CPoly else RealBivector
    return cls(n, comps)


def assert_same_graded(new, ref):
    assert type(new) is type(ref)
    assert (new.n, new.grade, new.ring) == (ref.n, ref.grade, ref.ring)
    assert new.comps == ref.comps


# -- the Jacobiator ------------------------------------------------------------


@pytest.mark.parametrize("ring", [CPoly, RPoly])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@SETTINGS
@given(data=st.data())
def test_jacobiator_matches_coordinate_brackets(ring, n, data):
    p = data.draw(bivectors(ring, n))
    assert_same_graded(jacobiator(p), ref_jacobiator(p))


@pytest.mark.parametrize("n", [2, 3])
@SETTINGS
@given(data=st.data())
def test_jacobiator_matches_on_realified_bivectors(n, data):
    for q in realify_poisson(data.draw(bivectors(CPoly, n))):
        assert_same_graded(jacobiator(q), ref_jacobiator(q))


def test_jacobiator_below_dimension_three_is_the_empty_grade_three_multivector():
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    defect = jacobiator(Bivector(2, {(1, 2): z1 * z1 * z2 + z2}))
    assert_same_graded(defect, Multivector(2, 3, {}, CPoly))
    x1 = RPoly.var(2, 1)
    defect = jacobiator(RealBivector(2, {(1, 2): x1}))
    assert_same_graded(defect, Multivector(2, 3, {}, RPoly))


def test_jacobiator_matches_on_poisson_and_non_poisson_examples():
    z1, z2, z3, z4 = (CPoly.var(4, k) for k in range(1, 5))
    # so(3)* on the first three coordinates: Poisson
    lie = Bivector(4, {(1, 2): z3, (2, 3): z1, (1, 3): -z2})
    # a sum of two commuting log-canonical pieces is Poisson too
    log_canonical = Bivector(4, {(1, 2): z1 * z2, (3, 4): z3 * z4.scale(2)})
    # J^{123} = z1 and J^{234} = -z4: not Poisson
    failing = Bivector(4, {(1, 2): z3, (1, 3): z4, (2, 4): z1})
    for p, poisson in ((lie, True), (log_canonical, True), (failing, False)):
        defect = jacobiator(p)
        assert_same_graded(defect, ref_jacobiator(p))
        assert is_poisson(p) is poisson


# -- the realification ---------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_realify_poisson_matches_the_index_pair_walk(n, data):
    p = data.draw(bivectors(CPoly, n))
    for new, ref in zip(realify_poisson(p), ref_realify_poisson(p)):
        assert_same_graded(new, ref)


def assert_same_pair(new, ref):
    for a, b in zip(new, ref, strict=True):
        assert type(a) is type(b)
        assert a == b


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data())
def test_realify_field_matches_the_block_rules(n, data):
    # components may be zero: `polys` draws the empty dictionary too
    field = VectorField(n, [data.draw(polys(CPoly, n)) for _ in range(n)])
    assert_same_pair(realify_field(field), ref_realify_field(field))


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data())
def test_conj_scaled_fields_match_the_block_rules(n, data):
    f = data.draw(polys(CPoly, n))
    w = VectorField(n, [data.draw(polys(CPoly, n)) for _ in range(n)])
    new = conj_scaled_real_field(f, w), conj_scaled_imag_field(f, w)
    assert_same_pair(new, ref_conj_scaled_fields(f, w))
    sx, sy = w.components[0].realify_split()
    fx, fy = f.realify_split()
    assert conj_product_split(f, w.components[0]) == (fx * sx + fy * sy, fx * sy - fy * sx)


def test_realification_of_empty_and_one_entry_objects():
    # the zero field on C^1 and the empty bivector on C^2, the smallest a bivector has
    for field in (VectorField.zero(1), VectorField(2, [CPoly.zero(2), CPoly.var(2, 1)])):
        assert_same_pair(realify_field(field), ref_realify_field(field))
        f = CPoly.var(field.n, 1)
        new = conj_scaled_real_field(f, field), conj_scaled_imag_field(f, field)
        assert_same_pair(new, ref_conj_scaled_fields(f, field))
    z1, z3 = CPoly.var(3, 1), CPoly.var(3, 3)
    i = GaussianRational(0, 1)
    for p in (Bivector(2, {}), Bivector(3, {(1, 3): z1 * z3 + z3.scale(i)})):
        assert_same_pair(realify_poisson(p), ref_realify_poisson(p))
