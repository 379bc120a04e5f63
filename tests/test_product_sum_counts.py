"""Call counts of the product sums in `poisson`, `multipliers` and `divide_exact`.

The triple-divergence route, the Pfaffian, the frame relations and each
division step add their products inside kernel sums, so none of them calls
the polynomial `*`, `+` or `-`, nor the graded container's `+` or `-`.  In
`bivector_lm_check` the only polynomial products are those of the scaled
bivector, one per stored entry.
"""

import pytest

from holomult.calculus import VectorField, VolumeForm, _Graded
from holomult.multipliers import inverse_from_frame
from holomult.poisson import Bivector, _triple_divergence_zero, bivector_lm_check, modular_field, pfaffian4
from holomult.poly import CPoly, _BasePoly
from holomult.scalars import GaussianRational

ARITHMETIC = [(_BasePoly, name) for name in ("__mul__", "__add__", "__radd__", "__sub__", "__rsub__")]
ARITHMETIC += [(_Graded, "__add__"), (_Graded, "__sub__")]


@pytest.fixture
def calls(monkeypatch):
    """Return a function that counts the listed methods' calls from then on."""
    seen = []

    def watch(methods):
        for cls, name in methods:
            original = getattr(cls, name)

            def counting(self, other, _original=original, _name=f"{cls.__name__}.{name}"):
                seen.append((_name, self, other))
                return _original(self, other)

            monkeypatch.setattr(cls, name, counting)
        return seen

    return watch


def zs(n):
    return [CPoly.var(n, k) for k in range(1, n + 1)]


def dense_bivector(n):
    z = zs(n)
    return Bivector(n, {(i, j): z[i - 1] * z[j % n] + z[(i + j) % n].scale(GaussianRational(i, -j))
                        for i in range(1, n + 1) for j in range(i + 1, n + 1)})


def test_triple_divergence_and_pfaffian_build_no_product(calls):
    p5, p4 = dense_bivector(5), dense_bivector(4)
    seen = calls(ARITHMETIC)
    assert _triple_divergence_zero(p5) is False
    assert pfaffian4(p4)
    assert seen == []


def test_inverse_from_frame_adds_no_field_and_no_product(calls):
    z1, z2, z3 = zs(3)
    # Z = (z2 z3, z1^2, z1 z2) is divergence-free; in the coordinate frame
    # [Z, d/dz^i] = -sum_k dZ^k/dz^i d/dz^k
    field = VectorField(3, [z2 * z3, z1 * z1, z1 * z2])
    frame = [VectorField.coordinate(3, k) for k in range(1, 4)]
    structure = [[-comp.diff(i) for comp in field.components] for i in range(1, 4)]
    structure[0][1] = -2 * z1
    seen = calls(ARITHMETIC)
    assert inverse_from_frame(frame, structure, field, VolumeForm(3)) == CPoly.const(3, 1)
    assert seen == []


def test_divide_exact_steps_take_no_product_and_no_difference(calls):
    z1, z2, z3 = zs(3)
    divisor = z1.scale(GaussianRational(1, 1)) + z2 * z3 - 2
    quotient = z1 * z1 * z2 + z3.scale(GaussianRational(0, 3)) + 1
    dividend = quotient * divisor
    seen = calls([(_BasePoly, "__mul__"), (_BasePoly, "__sub__")])
    assert dividend.divide_exact(divisor) == quotient
    assert (dividend + z3).divide_exact(divisor) is None
    assert seen == []


def test_bivector_multiplier_check_multiplies_only_the_scaled_entries(calls):
    p = dense_bivector(4)
    omega = VolumeForm(4)
    assert not modular_field(p, omega).is_zero()
    z1, z2, _, z4 = zs(4)
    alpha = z1 * z4 + z2 + 3
    seen = calls([(_BasePoly, "__mul__")])
    assert not bivector_lm_check(alpha, p, omega).ok
    assert len(seen) == len(p.comps)
    assert sorted(id(self) for _, self, _ in seen) == sorted(id(entry) for entry in p.comps.values())
    assert all(other is alpha for _, _, other in seen)
