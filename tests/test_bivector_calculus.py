"""Differential tests of the Poisson fields built from the grade-generic calculus.

`divergence` takes a multivector of any grade and must equal `curl`, the
route through forms, on every grade.  `hamiltonian_field` is the contraction
of df into the bivector, `modular_field` its divergence, `poisson_bracket`
the pairing of df ^ dg with it, and route 1 of `bivector_lm_check` the
divergence of the scaled bivector.  The references below are the loops over
the stored upper triangle that those calls replace, kept here only.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holomult.calculus import (
    Form,
    Multivector,
    VectorField,
    VolumeForm,
    curl,
    divergence,
    interior_product,
    pairing,
    partial_d,
    wedge,
)
from holomult.poisson import (
    Bivector,
    bivector_lm_check,
    hamiltonian_field,
    modular_field,
    poisson_bracket,
)
from holomult.poly import CPoly, RPoly
from holomult.realify import RealBivector, RealVectorField
from holomult.scalars import GaussianRational

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2]))


def weights(ring):
    """Nonzero volume weights; a real volume form needs a real weight."""
    imag = small if ring is CPoly else st.just(0)
    return st.builds(GaussianRational, small, imag).filter(bool)


# -- the references ------------------------------------------------------------


def ref_hamiltonian_field(f, p):
    partials = [f.diff(i) for i in range(1, p.n + 1)]
    comps = [p.field.ring.zero(p.n) for _ in range(p.n)]
    for (i, j), entry in p.comps.items():
        if partials[i - 1]:
            comps[j - 1] = comps[j - 1] + entry * partials[i - 1]
        if partials[j - 1]:
            comps[i - 1] = comps[i - 1] - entry * partials[j - 1]
    return p.field(p.n, comps)


def ref_modular_field(p):
    comps = [p.ring.zero(p.n)] * p.n
    for (i, j), entry in p.comps.items():
        comps[i - 1] = comps[i - 1] + entry.diff(j)
        comps[j - 1] = comps[j - 1] - entry.diff(i)
    return p.field(p.n, comps)


def ref_poisson_bracket(f, g, p):
    df = [f.diff(i) for i in range(1, p.n + 1)]
    dg = [g.diff(i) for i in range(1, p.n + 1)]
    out = p.field.ring.zero(p.n)
    for (i, j), comp in p.comps.items():
        out = out + comp * (df[i - 1] * dg[j - 1] - df[j - 1] * dg[i - 1])
    return out


def ref_lm_residual(alpha, p):
    comps = [p.ring.zero(p.n)] * p.n
    for (i, j), entry in p.comps.items():
        scaled = alpha * entry
        comps[i - 1] = comps[i - 1] + scaled.diff(j)
        comps[j - 1] = comps[j - 1] - scaled.diff(i)
    return p.field(p.n, comps)


# -- strategies ----------------------------------------------------------------


@st.composite
def polys(draw, ring, n, max_terms=3):
    monos = st.tuples(*[st.integers(0, 2)] * n)
    terms = draw(st.dictionaries(monos, st.tuples(small, small), max_size=max_terms))
    if ring is CPoly:
        return CPoly(n, {m: GaussianRational(re, im) for m, (re, im) in terms.items()})
    return RPoly(n, {m: re for m, (re, _) in terms.items()})


@st.composite
def graded(draw, kind, ring, n, grade):
    keys = list(combinations(range(1, n + 1), grade))
    stored = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    return kind(n, grade, {key: draw(polys(ring, n)) for key in stored}, ring)


@st.composite
def bivectors(draw, ring, n):
    cls = Bivector if ring is CPoly else RealBivector
    return cls(n, draw(graded(Multivector, ring, n, 2)).comps)


def functions(ring, n):
    """Polynomials, with the zero and a nonzero constant drawn often."""
    return st.one_of(st.just(ring.zero(n)), st.just(ring.const(n, 3)), polys(ring, n))


def assert_same_field(new, ref):
    assert type(new) is type(ref)
    assert new.components == ref.components


# -- divergence against curl ---------------------------------------------------


@pytest.mark.parametrize("ring", [CPoly, RPoly])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@SETTINGS
@given(data=st.data())
def test_divergence_equals_curl_on_every_grade(ring, n, data):
    grade = data.draw(st.integers(1, n))
    a = data.draw(graded(Multivector, ring, n, grade))
    omega = VolumeForm(n, data.draw(weights(ring)))
    div, via_forms = divergence(a, omega), curl(a, omega)
    assert type(div) is type(via_forms)
    if grade == 1:
        assert isinstance(div, ring) and div == via_forms
    else:
        assert (div.n, div.grade, div.ring) == (n, grade - 1, ring)
        assert div.comps == via_forms.comps


def test_divergence_of_a_bivector_is_its_modular_multivector():
    z1, z2, z3 = (CPoly.var(3, k) for k in range(1, 4))
    p = Bivector(3, {(1, 2): z1 * z2, (1, 3): z3 * z3, (2, 3): z1})
    # component i is sum_j dP^{ij}/dz^j
    expected = Multivector(3, 1, {(1,): z1 + z3.scale(2), (2,): -z2}, CPoly)
    assert divergence(p, VolumeForm(3, GaussianRational(2, 1))) == expected


# -- the Poisson fields against the triangle walks -----------------------------


@pytest.mark.parametrize("ring", [CPoly, RPoly])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@SETTINGS
@given(data=st.data())
def test_poisson_fields_match_the_triangle_walks(ring, n, data):
    p = data.draw(bivectors(ring, n))
    f, g = data.draw(functions(ring, n)), data.draw(functions(ring, n))
    omega = VolumeForm(n, data.draw(weights(ring)))
    assert_same_field(hamiltonian_field(f, p), ref_hamiltonian_field(f, p))
    assert_same_field(modular_field(p, omega), ref_modular_field(p))
    bracket = poisson_bracket(f, g, p)
    assert type(bracket) is ring and bracket == ref_poisson_bracket(f, g, p)
    alpha = data.draw(polys(ring, n).filter(bool))
    check = bivector_lm_check(alpha, p, omega)
    assert_same_field(check.residual, ref_lm_residual(alpha, p))
    assert check.ok is check.residual.is_zero()


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_constant_and_zero_functions_have_zero_fields_and_brackets(ring):
    n = 3
    x = [ring.var(n, k) for k in range(1, n + 1)]
    cls = Bivector if ring is CPoly else RealBivector
    p = cls(n, {(1, 2): x[2] * x[0], (2, 3): x[1] + ring.const(n, 1)})
    for f in (ring.zero(n), ring.const(n, 5)):
        field = hamiltonian_field(f, p)
        assert_same_field(field, ref_hamiltonian_field(f, p))
        assert field.is_zero() and type(field) is p.field
        bracket = poisson_bracket(f, x[0], p)
        assert type(bracket) is ring and bracket.is_zero()


# -- the two-way contraction ---------------------------------------------------


def test_a_one_form_contracts_into_a_bivector_as_a_grade_one_multivector():
    z1, z2, z3 = (CPoly.var(3, k) for k in range(1, 4))
    p = Bivector(3, {(1, 2): z3, (2, 3): z1})
    dz2 = Form(3, 1, {(2,): CPoly.const(3, 1)})
    # lowest index first: dz^2 removes the 2 from (1, 2) at sign -1, from (2, 3) at +1
    out = interior_product(dz2, p)
    assert type(out) is Multivector and out.grade == 1
    assert out == Multivector(3, 1, {(1,): -z3, (3,): z1})
    assert type(out.to_field()) is VectorField
    x = RPoly.var(3, 1)
    real = interior_product(Form(3, 1, {(1,): x}, RPoly), RealBivector(3, {(1, 3): x}))
    assert type(real) is Multivector and real.ring is RPoly
    assert type(real.to_field()) is RealVectorField


def test_a_field_still_contracts_into_a_form_as_a_form():
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    out = interior_product(VectorField(2, [z1, z2]), Form(2, 2, {(1, 2): CPoly.const(2, 1)}))
    assert type(out) is Form and out == Form(2, 1, {(1,): -z2, (2,): z1})


def test_contraction_needs_one_multivector_and_one_form():
    one = CPoly.const(2, 1)
    for kind in (Form, Multivector):
        with pytest.raises(ValueError, match="one multivector and one form"):
            interior_product(kind(2, 1, {(1,): one}), kind(2, 2, {(1, 2): one}))


@pytest.mark.parametrize("ring", [CPoly, RPoly])
@pytest.mark.parametrize("n", [2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_contracting_a_form_into_a_multivector_is_dual_to_wedge(ring, n, data):
    # <psi, i_phi A> == <phi ^ psi, A> for forms phi, psi and a multivector A
    top = data.draw(st.integers(2, n))
    k = data.draw(st.integers(1, top - 1))
    a = data.draw(graded(Multivector, ring, n, top))
    phi = data.draw(graded(Form, ring, n, k))
    psi = data.draw(graded(Form, ring, n, top - k))
    contracted = interior_product(phi, a)
    assert type(contracted) is Multivector and contracted.grade == top - k
    assert pairing(psi, contracted) == pairing(wedge(phi, psi), a)


def test_mixed_rings_raise_even_where_no_product_is_taken():
    real = RealBivector(2, {(1, 2): RPoly.var(2, 1)})
    # an empty real bivector gives no product that could catch the ring
    with pytest.raises(TypeError, match="ring mismatch"):
        interior_product(partial_d(CPoly.var(2, 2)), RealBivector(2, {}))
    with pytest.raises(TypeError, match="ring mismatch"):
        poisson_bracket(CPoly.var(2, 1), CPoly.var(2, 2), RealBivector(2, {}))
    with pytest.raises(TypeError, match="ring mismatch"):
        hamiltonian_field(CPoly.var(2, 1), real)
