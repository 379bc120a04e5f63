"""Work counts of two hot reads: a stored component and the Poisson bracket.

Each test counts calls of a kernel method through a monkeypatched wrapper,
so it pins how much work is done, not only what comes out.
"""

from holomult import poly
from holomult.calculus import Multivector
from holomult.poisson import Bivector, hamiltonian_field, poisson_bracket
from holomult.poly import CPoly, _BasePoly


def dense_bivector(n):
    z = [CPoly.var(n, k) for k in range(1, n + 1)]
    return Bivector(n, {(i, j): z[i - 1] * z[j - 1] + z[(i + j) % n].scale(i - j)
                        for i in range(1, n + 1) for j in range(i + 1, n + 1)})


def test_component_on_a_stored_key_builds_no_zero(monkeypatch):
    calls = []
    zero = CPoly.zero

    def counting_zero(cls, nvars):
        calls.append(nvars)
        return zero(nvars)

    p = dense_bivector(6)
    trivector = Multivector(6, 3, {(1, 2, 3): CPoly.var(6, 4)})
    monkeypatch.setattr(CPoly, "zero", classmethod(counting_zero))
    for (i, j), entry in p.comps.items():
        assert p.component(i, j) is entry
        assert p.component((i, j)) is entry
    assert trivector.component(1, 2, 3) == CPoly.var(6, 4)
    assert calls == []
    # an absent index set still reads as the zero of the ring
    assert trivector.component(1, 2, 4).is_zero()
    assert calls == [6]


def test_poisson_bracket_differentiates_each_argument_once_per_variable(monkeypatch):
    n = 6
    p = dense_bivector(n)
    z = [CPoly.var(n, k) for k in range(1, n + 1)]
    f = z[0] * z[1] * z[2] + z[3] * z[4] + z[5]
    g = z[5] * z[5] * z[0] + z[1] * z[3] + z[2].scale(3)
    expected = CPoly.zero(n)
    for (i, j), comp in p.comps.items():
        expected = expected + comp * (f.diff(i) * g.diff(j) - f.diff(j) * g.diff(i))

    calls = []
    diff = _BasePoly.diff

    def counting_diff(self, index):
        calls.append(index)
        return diff(self, index)

    monkeypatch.setattr(_BasePoly, "diff", counting_diff)
    assert poisson_bracket(f, g, p) == expected
    assert len(p.comps) == 15
    assert len(calls) <= 2 * n


def test_hamiltonian_fields_of_coordinates_skip_zero_partials(monkeypatch):
    n = 6
    p = dense_bivector(n)
    expected = []
    for l in range(1, n + 1):
        comps = [CPoly.zero(n)] * n
        for (i, j), entry in p.comps.items():
            if i == l:
                comps[j - 1] = comps[j - 1] + entry
            if j == l:
                comps[i - 1] = comps[i - 1] - entry
        expected.append(comps)

    calls = []
    mul_into = poly._mul_into

    def counting_mul_into(re, im, a, b, k):
        calls.append((a.is_zero(), b.is_zero()))
        return mul_into(re, im, a, b, k)

    monkeypatch.setattr(poly, "_mul_into", counting_mul_into)
    # the six fields one jacobiator builds, one per coordinate function
    for l in range(1, n + 1):
        assert hamiltonian_field(CPoly.var(n, l), p).components == expected[l - 1]
    assert len(calls) == 30
    assert not any(a or b for a, b in calls)
