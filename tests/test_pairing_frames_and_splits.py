"""Three small contracts: `pairing` takes one form and one multivector,
`inverse_from_frame` reads a scalar structure entry as a constant of the
field's ring, and a conj-scaled realified field splits f once.
"""

import pytest

from holomult.calculus import Form, Multivector, RealVectorField, VectorField, VolumeForm, pairing
from holomult.multipliers import inverse_from_frame
from holomult.poly import CPoly, RPoly
from holomult.realify import (
    conj_product_split, conj_scaled_imag_field, conj_scaled_real_field, realify_field,
)


def zs(n):
    return [CPoly.var(n, k) for k in range(1, n + 1)]


# -- pairing ----------------------------------------------------------------------


def test_pairing_refuses_two_multivectors_or_two_forms():
    z1, z2 = zs(2)
    m = Multivector(2, 1, {(1,): z1, (2,): z2})
    b = Multivector(2, 1, {(1,): z2})
    for left, right in ((m, b), (Form(2, 1, m.comps), Form(2, 1, b.comps)),
                        (VectorField(2, [z1, z2]), b)):
        with pytest.raises(ValueError, match="^pairing needs one form and one multivector$"):
            pairing(left, right)
    x1, x2 = RPoly.var(2, 1), RPoly.var(2, 2)
    with pytest.raises(ValueError, match="^pairing needs one form and one multivector$"):
        pairing(RealVectorField(2, [x1, x2]), RealVectorField(2, [x2, x1]))


def test_pairing_of_a_form_and_a_multivector_either_way():
    z1, z2 = zs(2)
    m = Multivector(2, 1, {(1,): z1, (2,): z2})
    phi = Form(2, 1, {(1,): z2})
    assert pairing(phi, m) == z1 * z2
    assert pairing(m, phi) == z1 * z2


# -- inverse_from_frame -----------------------------------------------------------


def coordinate_frame(n):
    return [VectorField.coordinate(n, k) for k in range(1, n + 1)]


def test_inverse_from_frame_reads_scalar_structure_entries():
    z1, z2 = zs(2)
    omega = VolumeForm(2)
    euler = VectorField(2, [z1, z2])
    with pytest.raises(ValueError, match="^structure-function trace is nonzero$"):
        inverse_from_frame(coordinate_frame(2), [[-1, 0], [0, -1]], euler, omega)
    traceless = VectorField(2, [z1, -z2])
    beta = inverse_from_frame(coordinate_frame(2), [[-1, 0], [0, 1]], traceless, omega)
    assert type(beta) is CPoly and beta == CPoly.const(2, 1)
    # scalar and polynomial entries mix
    mixed = [[CPoly.const(2, -1), 0], [0, 1]]
    assert inverse_from_frame(coordinate_frame(2), mixed, traceless, omega) == beta


def test_inverse_from_frame_refuses_entries_of_another_ring():
    z1, z2 = zs(2)
    traceless = VectorField(2, [z1, -z2])
    structure = [[RPoly.const(2, -1), 0], [0, RPoly.const(2, 1)]]
    with pytest.raises(TypeError, match="^ring mismatch: CPoly vs RPoly$"):
        inverse_from_frame(coordinate_frame(2), structure, traceless, VolumeForm(2))


# -- conj-scaled fields -----------------------------------------------------------


def test_conj_scaled_fields_split_f_once(monkeypatch):
    z = zs(4)
    f = z[0] * z[1] + z[2].scale(3) - 1
    w = VectorField(4, [z[1], z[2] * z[0], z[3] - z[0], z[0] + 1])
    # (Re, Im) of conj(f) W^k sit at x^k and y^k: 2 Re is (a, b) and 2 Im is (b, -a)
    parts = [conj_product_split(f, c) for c in w.components]
    expected_real = RealVectorField(8, [a for a, _ in parts] + [b for _, b in parts])
    expected_imag = RealVectorField(8, [b for _, b in parts] + [-a for a, _ in parts])

    calls = []
    split = CPoly.realify_split

    def counting(self):
        calls.append(self)
        return split(self)

    monkeypatch.setattr(CPoly, "realify_split", counting)
    for build, expected in ((conj_scaled_real_field, expected_real), (conj_scaled_imag_field, expected_imag)):
        calls.clear()
        assert build(f, w) == expected
        assert len(calls) == 5 and [c == f for c in calls].count(True) == 1
    calls.clear()
    realify_field(w)
    assert len(calls) == 4
