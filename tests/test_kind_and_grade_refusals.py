"""Operations refuse an operand of the wrong kind, grade or ring by name.

Each case once returned a wrong object or died deep inside with an
unrelated error: a form's divergence, the exterior derivative of a
multivector, the realification of a field as a bivector (and the other way
round), real data fed to the realification, and the Poisson checks on a
grade-3 multivector or a plain grade-2 one.
"""

import pytest

from holomult.calculus import (
    Form, Multivector, RealVectorField, VectorField, VolumeForm, divergence, partial_d,
)
from holomult.poisson import (
    Bivector, Dim4Exactness, bivector_lm_check, dim4_exactness, exactness_check, is_poisson,
    pfaffian4,
)
from holomult.poly import CPoly, RPoly
from holomult.realify import (
    conj_scaled_imag_field, conj_scaled_real_field, modsq, realify_field, realify_poisson,
)


def zs(n):
    return [CPoly.var(n, k) for k in range(1, n + 1)]


def test_partial_d_refuses_a_multivector():
    with pytest.raises(ValueError, match="partial_d needs a form or a polynomial"):
        partial_d(VectorField(3, zs(3)))
    with pytest.raises(ValueError, match="partial_d needs a form or a polynomial"):
        partial_d(Multivector(3, 2, {(1, 2): zs(3)[0]}))


def test_divergence_refuses_a_form_or_a_polynomial():
    z1 = zs(3)[0]
    with pytest.raises(ValueError, match="divergence needs a multivector"):
        divergence(Form(3, 1, {(1,): z1}), VolumeForm(3))
    with pytest.raises(ValueError, match="divergence needs a multivector"):
        divergence(z1, VolumeForm(3))


@pytest.mark.parametrize("call, name, grade", [
    (lambda: realify_poisson(VectorField(4, zs(4))), "realify_poisson", 1),
    (lambda: realify_field(Bivector(3, {(1, 2): zs(3)[0]})), "realify_field", 2),
    (lambda: conj_scaled_real_field(zs(4)[0], Bivector(4, {(1, 2): zs(4)[0]})), "conj_scaled_real_field", 2),
    (lambda: conj_scaled_imag_field(zs(4)[0], Bivector(4, {(1, 2): zs(4)[0]})), "conj_scaled_imag_field", 2),
])
def test_realification_refuses_a_wrong_grade(call, name, grade):
    with pytest.raises(ValueError, match=rf"^{name} .*\bgrade {grade}$"):
        call()


def test_realification_refuses_real_data():
    x1, x2 = RPoly.var(2, 1), RPoly.var(2, 2)
    for call in (lambda: modsq(x1),
                 lambda: realify_field(RealVectorField(2, [x1, x2])),
                 lambda: realify_field(RealVectorField.zero(2)),
                 lambda: conj_scaled_real_field(RPoly.var(3, 1), VectorField(3, zs(3)))):
        with pytest.raises(TypeError, match="^ring mismatch: CPoly vs RPoly$"):
            call()


@pytest.mark.parametrize("call, name", [
    (lambda t: exactness_check(t, VolumeForm(4)), "exactness_check"),
    (lambda t: bivector_lm_check(zs(4)[0], t, VolumeForm(4)), "bivector_lm_check"),
    (lambda t: dim4_exactness(t, VolumeForm(4)), "dim4_exactness"),
])
def test_poisson_checks_refuse_a_grade_3_multivector(call, name):
    trivector = Multivector(4, 3, {(1, 2, 3): zs(4)[0]})
    with pytest.raises(ValueError, match=rf"^{name} .*\bgrade 3$"):
        call(trivector)


def test_dim4_exactness_reports_on_a_curl_free_non_poisson_bivector():
    z1, _, z3, _ = zs(4)
    p = Bivector(4, {(1, 2): z3, (3, 4): z1})
    assert not is_poisson(p)
    report = dim4_exactness(p, VolumeForm(4), vanish_point=[0, 0, 0, 0])
    # exact with a nonzero Pfaffian: the equivalence needs P to be Poisson
    assert report == Dim4Exactness(False, True, True, z1 * z3)


def test_dim4_exactness_and_pfaffian_read_a_plain_multivector():
    z1, _, z3, _ = zs(4)
    plain = Multivector(4, 2, {(1, 2): z1, (3, 4): z3})
    as_bivector = Bivector(4, plain.comps)
    assert pfaffian4(plain) == pfaffian4(as_bivector) == z1 * z3
    assert dim4_exactness(plain, VolumeForm(4)) == dim4_exactness(as_bivector, VolumeForm(4))
    assert exactness_check(plain, VolumeForm(4)) == exactness_check(as_bivector, VolumeForm(4))
