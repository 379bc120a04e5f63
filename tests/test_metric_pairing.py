"""`HoloMetric.pair_fields` convolves each g_ij V^i W^j into its one sum.

The metric pairing passes (1, g_ij V^i, W^j) items to the kernel's `_sum`,
so no product polynomial is built on its own and then scaled.
"""

from holomult.calculus import VectorField
from holomult.metric import HoloMetric
from holomult.poly import CPoly, _BasePoly
from holomult.scalars import GaussianRational

DENSE = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]  # determinant 4


def test_pair_fields_multiplies_no_polynomial(monkeypatch):
    z1, z2, z3 = (CPoly.var(3, k) for k in range(1, 4))
    i = GaussianRational(0, 1)
    v = VectorField(3, [z1 * z2 + 1, z3.scale(i), z1 - z2 * z2])
    w = VectorField(3, [z2 + z3, z1 * z1 * z3, z2.scale(GaussianRational(1, 2)) - 3])
    metric = HoloMetric(DENSE)
    expected = CPoly.zero(3)
    for a in range(3):
        for b in range(3):
            expected = expected + v.components[a] * w.components[b] * DENSE[a][b]

    calls = []
    mul = _BasePoly.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(_BasePoly, "__mul__", counting_mul)
    result = metric.pair_fields(v, w)
    assert calls == []
    assert result == expected
    assert type(result) is CPoly
