"""A bivector computes its Jacobiator and its modular field once.

The counts go through monkeypatched wrappers of the functions the two
bodies call: `poisson._collect` ends every Jacobiator body, and
`poisson.divergence` is the modular field's body.  The memo must return
what a fresh computation gives, never leak into derived bivectors or into
`==`, `hash` and `repr`, and leave the cross-checked routes in place.
"""

import pytest

import holomult.poisson
from holomult.calculus import Multivector, VectorField, VolumeForm, divergence
from holomult.cli import main
from holomult.manifest import parse_manifest, run_tasks
from holomult.poisson import Bivector, jacobiator, modular_field
from holomult.poly import CPoly
from holomult.realify import RealBivector, realify_poisson

# so(3): {z1, z2} = z3, {z2, z3} = z1, {z3, z1} = z2 is Poisson and curl-free,
# and f is a Casimir, so every task below passes
SO3 = """[dim]
3
[poly]
f = z1*z1 + z2*z2 + z3*z3
alpha = z1*z1 + z2*z2 + z3*z3 + 2
h = 0
[bivector]
P 1 2 = z3
P 1 3 = -z2
P 2 3 = z1
[task]
"""


def so3():
    z = [CPoly.var(3, k) for k in range(1, 4)]
    return Bivector(3, {(1, 2): z[2], (1, 3): -z[1], (2, 3): z[0]})


def skewed():
    """A bivector on C^3 with a nonzero Jacobiator and a nonzero modular field."""
    z = [CPoly.var(3, k) for k in range(1, 4)]
    return Bivector(3, {(1, 2): z[0] * z[2], (1, 3): z[1] * z[1], (2, 3): z[0] + z[2]})


def count_calls(monkeypatch, name, keep=lambda *args: True):
    calls = []
    original = getattr(holomult.poisson, name)

    def counting(*args):
        if keep(*args):
            calls.append(args)
        return original(*args)

    monkeypatch.setattr(holomult.poisson, name, counting)
    return calls


def test_one_jacobiator_body_per_manifest(monkeypatch):
    bodies = count_calls(monkeypatch, "_collect")
    report = run_tasks(parse_manifest(SO3 + "jacobi P\nexactness P\n"))
    assert [r.verdict for r in report.records] == ["pass", "pass"]
    assert len(bodies) == 1


def test_one_divergence_of_the_bivector_per_manifest(monkeypatch):
    tasks = ["modular_zero P", "self_multiplier f P", "bivector_lm alpha P",
             "hamiltonian_lm alpha f P", "unimodular P h", "exactness P"]
    p = so3()
    of_p = count_calls(monkeypatch, "divergence", lambda a, omega: a == p)
    report = run_tasks(parse_manifest(SO3 + "\n".join(tasks) + "\n"))
    assert [r.verdict for r in report.records] == ["pass"] * 6
    assert len(of_p) == 1


@pytest.mark.parametrize("make", [so3, skewed])
def test_a_memoized_result_equals_a_fresh_one(make):
    p, omega = make(), VolumeForm(3, 5)
    first = jacobiator(p), modular_field(p, omega)
    assert jacobiator(p) is first[0]
    assert modular_field(p, VolumeForm(3)) is first[1]  # the weight cancels
    fresh = make()
    assert first == (jacobiator(fresh), modular_field(fresh, omega))
    plain = Multivector(3, 2, fresh.comps)
    assert first == (jacobiator(plain), divergence(plain, omega).to_field())


def test_derived_bivectors_compute_their_own_results():
    p, omega = skewed(), VolumeForm(3)
    alpha = CPoly.var(3, 1) + CPoly.const(3, 2)
    jac, mod = jacobiator(p), modular_field(p, omega)
    assert jac and mod
    for derived in (-p, p.scale(alpha), p + so3(), p + p):
        assert type(derived) is Bivector
        fresh = Bivector(3, derived.comps)
        assert jacobiator(derived) == jacobiator(fresh)
        assert modular_field(derived, omega) == modular_field(fresh, omega)
        assert jacobiator(derived) is not jac and modular_field(derived, omega) is not mod
    assert modular_field(-p, omega) == -mod
    assert jacobiator(p) is jac and modular_field(p, omega) is mod


def test_a_plain_multivector_is_computed_on_every_call(monkeypatch):
    plain = Multivector(3, 2, skewed().comps)
    bodies = count_calls(monkeypatch, "_collect")
    of_plain = count_calls(monkeypatch, "divergence")
    assert jacobiator(plain) == jacobiator(plain)
    assert modular_field(plain, VolumeForm(3)) == modular_field(plain, VolumeForm(3))
    assert (len(bodies), len(of_plain)) == (2, 2)


def test_a_mismatched_volume_form_still_raises():
    p = skewed()
    modular_field(p, VolumeForm(3))
    with pytest.raises(ValueError, match="dimension mismatch with volume form"):
        modular_field(p, VolumeForm(4))


def test_the_memo_is_invisible_to_eq_hash_and_repr():
    p, q = skewed(), skewed()
    before = repr(p)
    jacobiator(p)
    modular_field(p, VolumeForm(3))
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q) == before
    assert p._memo and getattr(q, "_memo", None) is None


def test_the_real_side_shares_the_memo():
    q_re, _ = realify_poisson(skewed())
    assert type(q_re) is RealBivector
    assert jacobiator(q_re) is jacobiator(q_re)
    assert jacobiator(q_re) == jacobiator(Multivector(6, 2, q_re.comps, q_re.ring))


def test_a_route_disagreement_after_a_memoized_modular_field_exits_three(tmp_path, capsys, monkeypatch):
    original = holomult.poisson.hamiltonian_field

    def shifted(f, p):  # the weighted-modular route now sees a shifted field
        return original(f, p) + VectorField.coordinate(p.n, 1)

    monkeypatch.setattr(holomult.poisson, "hamiltonian_field", shifted)
    path = tmp_path / "lm.mf"
    path.write_text(SO3 + "modular_zero P\nbivector_lm alpha P\n", encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == "error: internal route disagreement: weighted-modular route disagrees\n"
