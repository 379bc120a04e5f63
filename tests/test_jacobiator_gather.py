"""The Jacobiator is one gather, and the bivector operations refuse other grades.

The product count goes through a monkeypatched `poly._mul_into`, the one
product routine of the kernel: every product the Jacobiator makes is a
stored entry of P times a partial of an entry, with no constant-1 factor
from a coordinate Hamiltonian field in between.
"""

import pytest

from holomult import poly
from holomult.calculus import Multivector, VolumeForm, wedge
from holomult.poisson import Bivector, hamiltonian_field, jacobiator, modular_field
from holomult.poly import CPoly, RPoly


def dense_bivector(n):
    z = [CPoly.var(n, k) for k in range(1, n + 1)]
    return Bivector(n, {(i, j): z[i - 1] * z[j - 1] + z[(i + j) % n].scale(i - j)
                        for i in range(1, n + 1) for j in range(i + 1, n + 1)})


def wedge_sum(p):
    """sum_l X_{z^l} ^ dP/dz^l, built from the fields and the partial bivectors."""
    total = Multivector(p.n, 3, {}, p.ring)
    for l in range(1, p.n + 1):
        d_l = Multivector(p.n, 2, {key: entry.diff(l) for key, entry in p.comps.items()}, p.ring)
        total = total + wedge(hamiltonian_field(p.ring.var(p.n, l), p), d_l)
    return total


def test_every_product_is_a_stored_entry_times_a_partial(monkeypatch):
    p = dense_bivector(6)
    expected = wedge_sum(p)
    entries = list(p.comps.values())
    calls = []
    mul_into = poly._mul_into

    def counting_mul_into(re, im, a, b, k):
        calls.append(a)
        return mul_into(re, im, a, b, k)

    monkeypatch.setattr(poly, "_mul_into", counting_mul_into)
    assert jacobiator(p) == expected
    assert len(calls) == 150
    assert all(any(a is entry for entry in entries) for a in calls)


@pytest.mark.parametrize("ring", [CPoly, RPoly])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("grade", [1, 3])
def test_other_grades_are_refused(ring, n, grade):
    x = ring.var(n, 1)
    a = Multivector(n, grade, {tuple(range(1, grade + 1)): x}, ring)
    calls = [("jacobiator", lambda: jacobiator(a)),
             ("modular_field", lambda: modular_field(a, VolumeForm(n))),
             ("hamiltonian_field", lambda: hamiltonian_field(x, a))]
    for name, call in calls:
        with pytest.raises(ValueError, match=rf"^{name} .*\bgrade {grade}$"):
            call()
