"""Each polynomial takes each partial once.

`_BasePoly.diff` keeps the partials it has taken in the private `_partials`
slot, so a repeated call returns the stored object.  The slot is a cache:
the stored partial must equal, in canonical storage, the partial of a fresh
equal polynomial, and `==` and `hash` must not see it.  On a whole manifest
of Poisson tasks, `poly._lower` (the numerator routine behind `diff`) must
run at most once per polynomial object, variable and numerator part.
"""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import holomult.poly
from holomult.manifest import parse_manifest, run_tasks
from holomult.poly import CPoly, RPoly
from holomult.scalars import GaussianRational

RINGS = [CPoly, RPoly]


def storage(p):
    return p.nvars, p._re, p._im, p._den


def sample(ring):
    coeff = GaussianRational(Fraction(3, 2), -2) if ring is CPoly else Fraction(-5, 6)
    return ring(3, {(2, 1, 0): coeff, (0, 3, 1): 7, (1, 0, 0): Fraction(1, 3), (0, 0, 0): 4})


@pytest.mark.parametrize("ring", RINGS)
def test_a_repeated_partial_is_the_stored_object(ring):
    p = sample(ring)
    for k in range(1, 4):
        first = p.diff(k)
        assert p.diff(k) is first
    assert p.diff(1) is not p.diff(2)


@pytest.mark.parametrize("ring", RINGS)
def test_the_stored_partial_equals_a_fresh_one(ring):
    p = sample(ring)
    for k in range(1, 4):
        p.diff(k)
    for k in range(1, 4):
        fresh = ring(3, dict(p.terms))
        assert fresh._partials is None
        assert storage(p.diff(k)) == storage(fresh.diff(k))
        # a partial of a partial is kept on the partial
        assert storage(p.diff(k).diff(1)) == storage(fresh.diff(k).diff(1))


@pytest.mark.parametrize("ring", RINGS)
def test_equality_and_hash_do_not_see_the_partials(ring):
    p, q = sample(ring), sample(ring)
    before = hash(p)
    for k in range(1, 4):
        p.diff(k)
    assert p == q and q == p
    assert hash(p) == hash(q) == before
    assert len({p, q}) == 1


def test_an_out_of_range_variable_is_refused_after_a_partial_too():
    p = sample(CPoly)
    p.diff(1)
    for k in (0, 4):
        with pytest.raises(IndexError, match="out of range 1..3"):
            p.diff(k)


def _det(rows):
    total = rows[0][0].zero(rows[0][0].nvars)
    for perm in permutations(range(len(rows))):
        term = CPoly.const(rows[0][0].nvars, _sign(perm))
        for r, c in enumerate(perm):
            term = term * rows[r][c]
        total = total + term
    return total


def _sign(seq):
    seq = list(seq)
    return (-1) ** sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])


def jacobian_manifest():
    """A Jacobian (so Poisson and unimodular) bivector on C^5 with the tasks of a
    poisson-heavy Jacobian job: P^{ij} = sign(i, j, K) det(dC_a/dz_k, k in K)."""
    n = 5
    z = [CPoly.var(n, k) for k in range(1, n + 1)]
    casimirs = [z[0] * z[1] + z[2] ** 2 - z[4], z[3] ** 2 + z[0] * z[4], z[1] * z[2] + 2 * z[3] + 1]
    lines = ["[dim]", str(n), "[poly]",
             f"c1 = {casimirs[0].format()}",
             f"c12 = {(casimirs[0] * casimirs[1]).format()}",
             f"f = {(z[0] * z[1] - 3 * z[4] ** 2 + z[2]).format()}",
             "[bivector]"]
    for i, j in combinations(range(1, n + 1), 2):
        rest = [k for k in range(1, n + 1) if k not in (i, j)]
        entry = _det([[c.diff(k) for k in rest] for c in casimirs]).scale(_sign([i, j] + rest))
        if entry:
            lines.append(f"P {i} {j} = {entry.format()}")
    lines += ["[task]", "jacobi P", "modular_zero P", "exactness P", "casimir c12 P",
              "bivector_lm c12 P", "self_multiplier f P", "hamiltonian_lm c1 f P", "unimodular P c1"]
    return "\n".join(lines) + "\n"


def test_a_manifest_lowers_each_part_once(monkeypatch):
    seen, keep = Counter(), []
    original = holomult.poly._lower

    def recording(part, shift, step):
        caller = sys._getframe(1).f_locals
        poly = caller["self"]
        keep.append(poly)  # keeps each id in use for the whole test
        seen[id(poly), caller["var_index"], part is poly._im] += 1
        return original(part, shift, step)

    monkeypatch.setattr(holomult.poly, "_lower", recording)
    report = run_tasks(parse_manifest(jacobian_manifest()))
    assert report.exit_code() == 0
    assert seen and max(seen.values()) == 1
