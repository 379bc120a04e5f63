"""A bivector computes the Hamiltonian field of each polynomial object once.

The entry sits in the bivector's `_memo` under ("hamiltonian", id(f)) and
holds f beside its field, so no other object can take f's id while the entry
lives.  Each polynomial gets its own field, equal polynomials that are
different objects are each computed, a plain grade-2 `Multivector` and every
derived bivector compute their own, and route 3 of `bivector_lm_check` stays
a route of its own.  The body is counted through `poisson.interior_product`.
"""

import gc
from pathlib import Path

import pytest

import holomult.poisson
from holomult.calculus import Multivector, VolumeForm, interior_product, partial_d
from holomult.manifest import parse_manifest, run_tasks
from holomult.poisson import Bivector, bivector_lm_check, hamiltonian_field
from holomult.poly import CPoly, RPoly
from holomult.realify import realify_poisson

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def skewed():
    z = [CPoly.var(3, k) for k in range(1, 4)]
    return Bivector(3, {(1, 2): z[0] * z[2], (1, 3): z[1] * z[1], (2, 3): z[0] + z[2]})


def fresh(f, p):
    """The Hamiltonian field of f computed on a plain copy of p, outside any memo."""
    return interior_product(partial_d(f), Multivector(p.n, 2, p.comps, p.ring)).to_field()


@pytest.fixture
def bodies(monkeypatch):
    calls = []
    original = holomult.poisson.interior_product

    def counting(a, phi):
        calls.append(phi)
        return original(a, phi)

    monkeypatch.setattr(holomult.poisson, "interior_product", counting)
    return calls


def test_one_body_per_polynomial_object(bodies):
    p = skewed()
    f = CPoly.var(3, 1) * CPoly.var(3, 2) + CPoly.const(3, 2)
    first = hamiltonian_field(f, p)
    assert hamiltonian_field(f, p) is first
    assert first == fresh(f, p)
    assert len(bodies) == 1
    assert p._memo[("hamiltonian", id(f))] == (f, first)
    assert p._memo[("hamiltonian", id(f))][0] is f


def test_each_polynomial_gets_its_own_field(bodies):
    p = skewed()
    polys = [CPoly.var(3, k) for k in range(1, 4)] + [CPoly.var(3, 1) * CPoly.var(3, 3)]
    fields = [hamiltonian_field(f, p) for f in polys]
    assert fields == [fresh(f, p) for f in polys]
    assert len(set(fields)) == len(polys)
    assert [hamiltonian_field(f, p) for f in reversed(polys)] == fields[::-1]
    assert len(bodies) == len(polys)


def test_equal_polynomials_that_are_different_objects_are_each_computed(bodies):
    p = skewed()
    f, g = CPoly.var(3, 2) * CPoly.var(3, 2), CPoly.var(3, 2) * CPoly.var(3, 2)
    assert f == g and f is not g
    assert hamiltonian_field(f, p) == hamiltonian_field(g, p) == fresh(f, p)
    assert len(bodies) == 2


def test_the_entry_keeps_its_polynomial_alive():
    p = skewed()
    held = hamiltonian_field(CPoly.var(3, 1) + CPoly.var(3, 2), p)
    gc.collect()
    # a polynomial made now cannot take the id of the one the entry holds
    g = CPoly.var(3, 3) * CPoly.var(3, 3)
    assert ("hamiltonian", id(g)) not in p._memo
    assert hamiltonian_field(g, p) == fresh(g, p) != held


def test_plain_and_derived_bivectors_compute_their_own(bodies):
    p, f = skewed(), CPoly.var(3, 1) * CPoly.var(3, 1)
    plain = Multivector(3, 2, p.comps)
    assert hamiltonian_field(f, plain) == hamiltonian_field(f, plain) == fresh(f, p)
    assert len(bodies) == 2
    held = hamiltonian_field(f, p)
    for derived in (-p, p.scale(f), p + p):
        assert hamiltonian_field(f, derived) == fresh(f, derived)
    assert hamiltonian_field(f, p) is held and len(bodies) == 6


def test_the_real_side_shares_the_memo(bodies):
    q, _ = realify_poisson(skewed())
    u = RPoly.var(6, 1) * RPoly.var(6, 4)
    assert hamiltonian_field(u, q) is hamiltonian_field(u, q)
    assert hamiltonian_field(u, q) == fresh(u, q)
    assert len(bodies) == 1


def test_route_three_reads_the_field_and_routes_one_and_two_do_not(bodies):
    p, omega = skewed(), VolumeForm(3)
    alpha = CPoly.var(3, 1) + CPoly.const(3, 1)
    first = bivector_lm_check(alpha, p, omega)
    assert len(bodies) == 1
    assert bivector_lm_check(alpha, p, omega).residual == first.residual
    assert len(bodies) == 1
    assert p._memo[("hamiltonian", id(alpha))][1] == fresh(alpha, p)


@pytest.mark.parametrize("stem, calls, bodies_run", [("rank2_linear", 3, 2), ("metric_gradient", 3, 2)])
def test_shipped_manifests_repeat_pairs(stem, calls, bodies_run, bodies, monkeypatch):
    asked = []
    original = holomult.poisson.hamiltonian_field

    def counting(f, p):
        asked.append((f, p))
        return original(f, p)

    monkeypatch.setattr(holomult.poisson, "hamiltonian_field", counting)
    report = run_tasks(parse_manifest((MANIFESTS / f"{stem}.mf").read_text(encoding="utf-8")))
    assert all(r.verdict == "pass" for r in report.records)
    assert (len(asked), len(bodies)) == (calls, bodies_run)
