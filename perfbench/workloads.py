"""Seeded workloads and their independent expected answers.

Every workload is a pool of jobs built from (workload name, seed).  The
shape of each job (dimension, structure kind, degrees, task list) is fixed by
its slot in the pool; the seed draws the coefficients, linear forms and
exponents.  Fixed shapes keep the cost of a pool steady across seeds, so a
change of seed changes the inputs without changing how much work they are.

Expected verdicts come from the construction (theorems about Jacobian and
log-canonical brackets, cofactor algebra of invariant linear forms) or from
exact point evaluations in `exact.py`; holomult is never asked what the
answer should be.  holomult sees only manifest text, CLI arguments, or
objects parsed from generated text before timing starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List

import exact as X

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHIPPED = ("constant_poisson", "cyclic_quadratic", "metric_gradient", "quadratic_inverse", "rank2_linear")

# RK4 settings and the drift a conserved quantity may show along them.
RK4_STEP = 0.01
RK4_T_END = 0.4
DRIFT_TOL = 1e-7
SAMPLE_COUNT = 40


@dataclass
class Job:
    """One closed-loop unit of work: `run` calls holomult (timed), `check`
    compares its outcome with the expected answer (untimed)."""

    name: str
    inputs: str  # canonical description of what holomult receives; feeds the digest
    tasks: int
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    expected: object = None  # the answer `check` compares against


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _nonzero(rng, top=3):
    return rng.choice([k for k in range(-top, top + 1) if k])


def _value(rng, imag):
    """Small nonzero rational, with a nonzero imaginary part when `imag`."""
    re_ = Fraction(_nonzero(rng), rng.choice((1, 1, 1, 2)))
    return (re_, Fraction(_nonzero(rng, 2)) if imag else Fraction(0))


def _shaped_poly(shape, rng, n, degree, nterms, gaussian=0.2):
    """Polynomial with `nterms` terms of total degree <= degree, one of degree
    exactly `degree`.  `shape` picks the monomials and which coefficients are
    non-real, `rng` the coefficient values."""
    support = {}
    while len(support) < nterms:
        d = degree if not support else shape.randint(1, degree)
        mono = [0] * n
        for _ in range(d):
            mono[shape.randrange(n)] += 1
        support[tuple(mono)] = shape.random() < gaussian
    return {mono: _value(rng, imag) for mono, imag in support.items()}


def _shape_rng(workload, slot, attempt=0):
    """Slot-fixed generator for job shapes, independent of the seed."""
    return random.Random(f"{workload}:{slot}:{attempt}")


def _rational_point(rng, n):
    return [X.q(Fraction(rng.randint(-7, 7), rng.randint(1, 5)), Fraction(rng.randint(-7, 7), rng.randint(1, 5))) for _ in range(n)]


def _perm_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _manifest(n, polys=(), fields=(), bivectors=(), tasks=(), volume=None):
    lines = ["[dim]", str(n)]
    if volume is not None:
        lines += ["[volume]", volume]
    if polys:
        lines.append("[poly]")
        lines += [f"{name} = {X.fmt(p)}" for name, p in polys]
    if fields:
        lines.append("[field]")
        lines += [f"{name} = " + " ; ".join(X.fmt(c) for c in comps) for name, comps in fields]
    if bivectors:
        lines.append("[bivector]")
        for name, entries in bivectors:
            lines += [f"{name} {i} {j} = {X.fmt(p)}" for (i, j), p in sorted(entries.items()) if p]
    lines.append("[task]")
    lines += [" ".join(t) for t in tasks]
    return "\n".join(lines) + "\n"


def _manifest_job(name, text, expected, hm):
    """A generated manifest run through parse_manifest / run_tasks / emit_report.

    `expected` lists (kind, verdict, exponents-or-None) in task order.
    """

    def run():
        report = hm.manifest.run_tasks(hm.manifest.parse_manifest(text))
        return report.exit_code(), hm.manifest.emit_report(report, "json")

    def check(outcome):
        code, payload = outcome
        errors = []
        tasks = json.loads(payload)["tasks"]
        if len(tasks) != len(expected):
            return [f"{len(tasks)} task records, expected {len(expected)}"]
        for rec, (kind, verdict, exps) in zip(tasks, expected):
            if rec["kind"] != kind or rec["verdict"] != verdict:
                errors.append(f"task {rec['id']} {rec['kind']} gave {rec['verdict']}, expected {verdict}")
            elif exps is not None:
                got = [X.parse_gaussian(e) for e in rec["derived"]["exponents"]]
                if got != exps:
                    errors.append(f"task {rec['id']} exponents {rec['derived']['exponents']} differ")
        want_code = 0 if all(v in ("pass", "found") for _, v, _ in expected) else 1
        if code != want_code:
            errors.append(f"exit code {code}, expected {want_code}")
        return errors

    return Job(name=name, inputs=text, tasks=len(expected), run=run, check=check, expected=expected)


# ---------------------------------------------------------------------------
# shipped-small: the committed manifests through the CLI
# ---------------------------------------------------------------------------


def shipped_small(seed, hm, size=None):
    rng = random.Random(seed)
    order = list(SHIPPED)
    rng.shuffle(order)
    jobs = []
    for stem in order[:size]:
        path = ROOT / "manifests" / f"{stem}.mf"
        expected = (HERE / "expected" / f"{stem}.json").read_text(encoding="utf-8")
        jobs.append(_shipped_job(stem, path, expected, hm))
    return jobs


def _shipped_job(stem, path, expected, hm):
    argv = ["check", str(path), "--format", "json"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = hm.cli.main(argv)
        return code, buf.getvalue()

    def check(outcome):
        code, out = outcome
        errors = []
        if code != 0:
            errors.append(f"exit code {code}, expected 0")
        if out != expected:
            errors.append("report differs from the stored seed-commit bytes")
        return errors

    text = path.read_text(encoding="utf-8")
    ntasks = json.loads(expected)["summary"]["total"]
    return Job(name=stem, inputs=f"{stem}\n{text}", tasks=ntasks, run=run, check=check)


# ---------------------------------------------------------------------------
# poisson-heavy: Jacobian, log-canonical and generic quadratic bivectors
# ---------------------------------------------------------------------------

# (kind, dimension, extra): extra is the Casimir degrees of a Jacobian
# bracket, the zero-row-sum flag of a log-canonical one, or the term count of
# each entry of a generic quadratic bivector.  Pools have an odd number of
# slots, so the median job is the middle of one slot's timings rather than a
# point between two slots of different cost.
POISSON_SLOTS = (
    ("jacobian", 4, (2, 2)),
    ("logcan", 6, True),
    ("generic", 5, 3),
    ("jacobian", 5, (2, 2, 2)),
    ("logcan", 6, False),
    ("jacobian", 4, (2, 3)),
    ("generic", 6, 2),
    ("jacobian", 4, (3, 2)),
    ("logcan", 6, True),
    ("generic", 5, 3),
    ("jacobian", 4, (2, 2)),
)


class _PointData:
    """Exact values of a bivector and its first partials at one point."""

    def __init__(self, entries, n, point):
        self.n = n
        self.point = point
        self.E = [[X.ZERO] * n for _ in range(n)]
        self.D = [[[X.ZERO] * n for _ in range(n)] for _ in range(n)]
        for (i, j), p in entries.items():
            v = X.peval(p, point)
            self.E[i - 1][j - 1] = v
            self.E[j - 1][i - 1] = X.cmul(v, X.q(-1))
            for l in range(1, n + 1):
                d = X.peval(X.pdiff(p, l), point)
                self.D[i - 1][j - 1][l - 1] = d
                self.D[j - 1][i - 1][l - 1] = X.cmul(d, X.q(-1))
        self.modular = [self._sum(self.D[i][j][j] for j in range(n)) for i in range(n)]

    @staticmethod
    def _sum(values):
        total = X.ZERO
        for v in values:
            total = X.cadd(total, v)
        return total

    def grad(self, f):
        return [X.peval(X.pdiff(f, k), self.point) for k in range(1, self.n + 1)]

    def hamiltonian(self, f):
        g = self.grad(f)
        return [self._sum(X.cmul(self.E[i][j], g[i]) for i in range(self.n)) for j in range(self.n)]

    def apply(self, vec, f):
        g = self.grad(f)
        return self._sum(X.cmul(a, b) for a, b in zip(vec, g))

    def residuals(self, kind, args):
        """Exact residual values at the point; all zero when the task passes."""
        n = self.n
        if kind == "jacobi":
            out = []
            for i, j, k in itertools.combinations(range(n), 3):
                out.append(self._sum(
                    X.cadd(X.cadd(X.cmul(self.E[l][k], self.D[i][j][l]), X.cmul(self.E[l][i], self.D[j][k][l])),
                           X.cmul(self.E[l][j], self.D[k][i][l]))
                    for l in range(n)))
            return out
        if kind in ("modular_zero", "exactness"):
            return self.modular
        if kind == "casimir":
            return self.hamiltonian(args[0])
        if kind == "bivector_lm":
            alpha = args[0]
            a0 = X.peval(alpha, self.point)
            ga = self.grad(alpha)
            return [self._sum(X.cadd(X.cmul(ga[j], self.E[i][j]), X.cmul(a0, self.D[i][j][j])) for j in range(n))
                    for i in range(n)]
        if kind == "self_multiplier":
            return [self.apply(self.modular, args[0])]
        if kind == "hamiltonian_lm":
            alpha, f = args
            a0 = X.peval(alpha, self.point)
            return [X.csub(X.cmul(a0, self.apply(self.modular, f)), self.apply(self.hamiltonian(alpha), f))]
        if kind == "unimodular":
            return [X.csub(a, b) for a, b in zip(self.modular, self.hamiltonian(args[0]))]
        raise ValueError(kind)


def _jacobian_bivector(casimirs, n):
    """P^{ij} = sign(i, j, K) * det(dC restricted to the complement K)."""
    grads = [[X.pdiff(c, k) for k in range(1, n + 1)] for c in casimirs]
    entries = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        rest = [k for k in range(1, n + 1) if k not in (i, j)]
        sign = _perm_sign([i, j] + rest)
        det = {}
        for perm in itertools.permutations(range(len(rest))):
            term = X.const(n, X.q(_perm_sign(perm)))
            for row, col in enumerate(perm):
                term = X.pmul(term, grads[row][rest[col] - 1])
            det = X.padd(det, term)
        entries[(i, j)] = X.pscale(det, X.q(sign))
    return entries


def _mono(n, exps):
    return {tuple(exps): X.ONE}


def poisson_heavy(seed, hm, size=None):
    rng = random.Random(seed * 7919 + 1)
    jobs = []
    for slot, (kind, n, extra) in enumerate(POISSON_SLOTS[:size]):
        jobs.append(_poisson_job(rng, slot, kind, n, extra, hm))
    return jobs


def _jacobian_casimirs(shape, rng, n, degrees):
    """Casimirs whose Jacobian bracket has no zero entry."""
    while True:
        cas = [_shaped_poly(shape, rng, n, d, 2 if n > 4 else 3) for d in degrees]
        entries = _jacobian_bivector(cas, n)
        if all(entries.values()):
            return cas, entries


def _poisson_job(rng, slot, kind, n, extra, hm):
    shape = _shape_rng("poisson-heavy", slot)
    polys = {}
    tasks = []  # (kind, args as names, claimed verdict or None to certify "fail")
    if kind == "jacobian":
        cas, entries = _jacobian_casimirs(shape, rng, n, extra)
        polys["c1"] = cas[0]
        polys["c12"] = X.pmul(cas[0], cas[1])
        polys["f"] = _shaped_poly(shape, rng, n, 2, 3)
        for t in ("jacobi", "modular_zero", "exactness"):
            tasks.append((t, ["P"], "pass"))
        tasks += [("casimir", ["c12", "P"], "pass"), ("bivector_lm", ["c12", "P"], "pass"),
                  ("self_multiplier", ["f", "P"], "pass"), ("hamiltonian_lm", ["c1", "f", "P"], "pass"),
                  ("unimodular", ["P", "c1"], "pass")]
    elif kind == "logcan":
        a = [[Fraction(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            a[i][j] = Fraction(_nonzero(rng))
            a[j][i] = -a[i][j]
        if extra:  # project to zero row sums: a - (r 1^T - 1 r^T)/n stays antisymmetric
            r = [sum(row) for row in a]
            a = [[a[i][j] - (r[i] - r[j]) / n for j in range(n)] for i in range(n)]
        r = [sum(row) for row in a]
        entries = {}
        for i, j in itertools.combinations(range(1, n + 1), 2):
            exps = [0] * n
            exps[i - 1] += 1
            exps[j - 1] += 1
            entries[(i, j)] = {tuple(exps): X.q(a[i - 1][j - 1])} if a[i - 1][j - 1] else {}
        k = shape.randint(1, 2)
        polys["one"] = X.const(n, X.ONE)
        polys["prod"] = _mono(n, [1] * n)
        polys["alpha"] = X.padd(X.const(n, X.q(rng.randint(1, 3))), _mono(n, [k] * n))
        m = [shape.randint(0, 2) for _ in range(n)]
        qe = [shape.randint(0, 2) for _ in range(n)]
        polys["f"] = _mono(n, m)
        polys["g"] = _mono(n, qe)
        zero_r = all(x == 0 for x in r)
        # alpha's monomials are constant and (z1...zn)^k: a(m+1) is a multiple of r
        lm_ok = zero_r
        self_ok = sum(ri * mi for ri, mi in zip(r, m)) == 0
        # hamiltonian_lm f g: residual coefficient r.q - m^T a q
        mq = sum(m[i] * a[i][j] * qe[j] for i in range(n) for j in range(n))
        ham_ok = sum(ri * qi for ri, qi in zip(r, qe)) == mq
        v = lambda ok: "pass" if ok else "fail"
        tasks = [("jacobi", ["P"], "pass"), ("modular_zero", ["P"], v(zero_r)),
                 ("casimir", ["prod", "P"], v(zero_r)), ("bivector_lm", ["alpha", "P"], v(lm_ok)),
                 ("self_multiplier", ["f", "P"], v(self_ok)), ("hamiltonian_lm", ["f", "g", "P"], v(ham_ok)),
                 ("unimodular", ["P", "one"], v(zero_r)), ("exactness", ["P"], v(zero_r))]
    else:  # generic quadratic: every claim is a certified "fail"
        entries = {}
        for i, j in itertools.combinations(range(1, n + 1), 2):
            entries[(i, j)] = _shaped_poly(shape, rng, n, 2, extra, gaussian=0.3)
        polys["alpha"] = _shaped_poly(shape, rng, n, 2, 3)
        polys["f"] = _shaped_poly(shape, rng, n, 2, 2)
        polys["h"] = _shaped_poly(shape, rng, n, 2, 2)
        tasks = [("jacobi", ["P"], None), ("modular_zero", ["P"], None), ("exactness", ["P"], None),
                 ("casimir", ["f", "P"], None), ("bivector_lm", ["alpha", "P"], None),
                 ("self_multiplier", ["f", "P"], None), ("hamiltonian_lm", ["alpha", "f", "P"], None),
                 ("unimodular", ["P", "h"], None)]

    # certify every verdict at an exact rational point: claimed passes must
    # vanish there (a check on the construction), claimed fails must not.
    expected = []
    for tkind, args, claim in tasks:
        for attempt in range(4):
            pd = _PointData(entries, n, _rational_point(rng, n))
            values = pd.residuals(tkind, [polys[a] for a in args if a != "P"])
            vanishes = not any(X.nonzero(v) for v in values)
            if claim == "pass" or not vanishes:
                break
        if claim == "pass" and not vanishes:
            raise AssertionError(f"construction error: {kind} {tkind} does not vanish at a point")
        if claim in (None, "fail") and vanishes:
            raise AssertionError(f"could not certify {kind} {tkind} as failing")
        expected.append((tkind, claim or "fail", None))
    text = _manifest(n, polys=sorted(polys.items()), bivectors=[("P", entries)],
                     tasks=[[t] + a for t, a, _ in tasks])
    return _manifest_job(f"poisson-{slot}-{kind}{n}", text, expected, hm)


# ---------------------------------------------------------------------------
# darboux-division: invariant linear forms of linear and Lotka-Volterra fields
# ---------------------------------------------------------------------------

# (dimension, Lotka-Volterra?, candidate degrees, powers first?).  Candidates
# are products of two invariant forms; with `powers first` the first n are
# single-form powers, which makes the exponent system solvable for LV fields.
DARBOUX_SLOTS = (
    (4, False, (5, 4, 3, 2, 2), False),
    (4, True, (3, 2, 2, 2), True),
    (5, False, (4, 3, 2, 2), False),
    (5, True, (2, 1, 1, 2, 1), True),
    (4, False, (4, 4, 3, 2), False),
    (4, True, (2, 2, 2, 2, 2, 2), True),
    (5, False, (3, 3, 3, 2), False),
    (4, True, (2, 3, 2, 2), False),
    (4, False, (4, 3, 2, 2), False),
)


def _unimodular(rng, n):
    """Dense integer matrix of determinant 1 (a unit lower times a unit upper
    triangular factor): every invariant form involves every z_k, and the
    inverse stays integral, so coefficient sizes do not swing with the seed."""
    while True:
        lower = [[1 if i == j else (_nonzero(rng, 2) if j < i else 0) for j in range(n)] for i in range(n)]
        upper = [[1 if i == j else (_nonzero(rng, 1) if j > i else 0) for j in range(n)] for i in range(n)]
        v = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        if all(all(row) for row in v):
            return [[X.q(x) for x in row] for row in v]


def _combo(vectors, weights):
    """sum_k weights[k] * vectors[k] for integer weights."""
    out = [X.ZERO] * len(vectors[0])
    for w, vec in zip(weights, vectors):
        out = [X.cadd(o, X.cmul(X.q(w), x)) for o, x in zip(out, vec)]
    return out


def _spread(rng, n, total):
    """Exponent vector with `total` units dropped on random coordinates."""
    e = [0] * n
    for _ in range(total):
        e[rng.randrange(n)] += 1
    return e


def darboux_division(seed, hm, size=None):
    rng = random.Random(seed * 7919 + 2)
    return [_darboux_job(_shape_rng("darboux-division", slot), rng, slot, n, lv, degs, powers, hm)
            for slot, (n, lv, degs, powers) in enumerate(DARBOUX_SLOTS[:size])]


def _field_system(rng, n, lv, mu, kappa=None):
    """Field Z = V^{-1} F(Vz) with F_k(w) = w_k (lam_k + sum_j b_kj w_j).

    Returns (invariant forms L_k = (Vz)_k, Z components, cofactor vectors c_k,
    divergence vector), the affine functions written in the basis
    (1, w_1..w_n).  `mu` are exponents
    for which prod L_k^mu_k is a last multiplier; `kappa`, for linear fields,
    exponents of a first integral.
    """
    V = _unimodular(rng, n)
    b = [[Fraction(0)] * n for _ in range(n)]
    if lv:
        for k in range(n):
            for j in range(n):
                if k != j:
                    b[k][j] = Fraction(_nonzero(rng, 2))
        # diagonal so that sum_k (mu_k + 1) b_kj + b_jj = 0 for every j
        for j in range(n):
            s = sum((mu[k] + 1) * b[k][j] for k in range(n) if k != j)
            b[j][j] = -s / (mu[j] + 2)
    lam = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2))) for _ in range(n)]
    if kappa is None:
        # sum_k (mu_k + 1) lam_k = 0 fixes the last eigenvalue
        lam[-1] = -sum((mu[k] + 1) * lam[k] for k in range(n - 1)) / (mu[-1] + 1)
    else:
        # also sum_k kappa_k lam_k = 0, with kappa_{n-1} = 1 and kappa_n = 0
        s1 = -sum((mu[k] + 1) * lam[k] for k in range(n - 2))
        s2 = -sum(kappa[k] * lam[k] for k in range(n - 2))
        lam[-2] = s2
        lam[-1] = (s1 - (mu[-2] + 1) * s2) / (mu[-1] + 1)
    forms = [X.linear_form(row) for row in V]
    vinv = X.invert(V)
    fw = []
    for k in range(n):
        cof = X.const(n, X.q(lam[k]))
        for j in range(n):
            if b[k][j]:
                cof = X.padd(cof, X.pscale(forms[j], X.q(b[k][j])))
        fw.append(X.pmul(forms[k], cof))
    comps = [X.padd(*(X.pscale(fw[k], vinv[i][k]) for k in range(n))) for i in range(n)]
    cof_vecs = [[X.q(lam[k])] + [X.q(b[k][j]) for j in range(n)] for k in range(n)]
    div = [X.q(sum(lam))] + [X.q(sum(b[k][j] for k in range(n)) + b[j][j]) for j in range(n)]
    return forms, comps, cof_vecs, div


def _form_product(forms, exps, n):
    p = X.const(n, X.ONE)
    for form, e in zip(forms, exps):
        if e:
            p = X.pmul(p, X.ppow(form, e, n))
    return p


def _darboux_job(shape, rng, slot, n, lv, degs, powers, hm):
    mu = _spread(shape, n, 1 if lv else 2)
    kappa = None if lv else _spread(shape, n - 2, 1) + [1, 0]
    forms, comps, cof_vecs, div = _field_system(rng, n, lv, mu, kappa)
    # candidate exponent vectors with the slot's degrees
    cands = []
    for c, d in enumerate(degs):
        e = [0] * n
        if c < n and powers:
            e[c] = d
        else:
            ks = shape.sample(range(n), 2)
            split = shape.randint(0, d)
            e[ks[0]] += split
            e[ks[1]] += d - split
        cands.append(e)
    nu = _spread(shape, n, 2)
    fi_exps = kappa if kappa is not None else [1] + [0] * (n - 1)
    polys = [(f"f{c + 1}", _form_product(forms, e, n)) for c, e in enumerate(cands)]
    polys += [("alpha", _form_product(forms, mu, n)), ("beta", _form_product(forms, nu, n)),
              ("fi", _form_product(forms, fi_exps, n))]
    # expected verdicts from the cofactor algebra in the basis (1, w)
    cofactors = [_combo(cof_vecs, e) for e in cands]
    matrix = [[cofactors[c][row] for c in range(len(cands))] for row in range(n + 1)]
    rhs = [X.cmul(x, X.q(-1)) for x in div]
    solution = X.rref_solve(matrix, rhs)
    zero = lambda vec: not any(X.nonzero(x) for x in vec)
    lm = [X.cadd(a, b) for a, b in zip(_combo(cof_vecs, mu), div)]
    im = [X.csub(a, b) for a, b in zip(_combo(cof_vecs, nu), div)]
    fi = _combo(cof_vecs, fi_exps)
    v = lambda ok: "pass" if ok else "fail"
    expected = [
        ("darboux_search", "found" if solution is not None else "inconsistent", solution),
        ("last_multiplier", v(zero(lm)), None),
        ("inverse_multiplier", v(zero(im)), None),
        ("first_integral", v(zero(fi)), None),
        ("divergence_zero", v(zero(div)), None),
    ]
    tasks = [["darboux_search", "Z"] + [name for name, _ in polys[:len(cands)]],
             ["last_multiplier", "alpha", "Z"], ["inverse_multiplier", "beta", "Z"],
             ["first_integral", "fi", "Z"], ["divergence_zero", "Z"]]
    text = _manifest(n, polys=polys, fields=[("Z", comps)], tasks=tasks, volume="2" if slot % 3 == 1 else None)
    return _manifest_job(f"darboux-{slot}-{'lv' if lv else 'lin'}{n}", text, expected, hm)


# ---------------------------------------------------------------------------
# realify-float: realification, real multipliers, RK4 and sampling
# ---------------------------------------------------------------------------

# (dimension, Casimir degrees of the Jacobian Poisson input).  Mostly C^3
# with linear brackets; the C^3 quadratic and the two C^4 jobs form the tail.
REALIFY_SLOTS = (
    (3, (2,)),
    (3, (2,)),
    (4, (2, 1)),
    (3, (2,)),
    (3, (3,)),
    (3, (2,)),
    (3, (2,)),
    (4, (2, 1)),
    (3, (2,)),
)

_TERM = re.compile(r"^(?:(-?\d+(?:/\d+)?)\*?)?((?:\(?[xy]\d+\)?(?:\^\d+)?\*?)*)$")
_FACTOR = re.compile(r"\(?([xy])(\d+)\)?(?:\^(\d+))?")


def parse_real(text, n):
    """Parse holomult's canonical real polynomial text in x1..xn, y1..yn."""
    out = {}
    if text == "0":
        return out
    pieces = re.split(r" ([+-]) ", text)
    signs = ["+"] + pieces[1::2]
    for sign, body in zip(signs, pieces[0::2]):
        neg = sign == "-"
        if body.startswith("-") and not body[1:2].isdigit():
            neg, body = not neg, body[1:]
        match = _TERM.match(body)
        if match is None:
            raise ValueError(f"unparseable term {body!r}")
        coeff = Fraction(match.group(1)) if match.group(1) else Fraction(1)
        mono = [0] * (2 * n)
        for name, idx, e in _FACTOR.findall(match.group(2)):
            mono[(int(idx) - 1) + (n if name == "y" else 0)] += int(e or 1)
        out[tuple(mono)] = -coeff if neg else coeff
    return out


def realify_float(seed, hm, size=None):
    rng = random.Random(seed * 7919 + 3)
    return [_realify_job(_shape_rng("realify-float", slot), rng, seed, slot, n, degs, hm)
            for slot, (n, degs) in enumerate(REALIFY_SLOTS[:size])]


def _realify_job(shape, rng, seed, slot, n, degs, hm):
    mu = _spread(shape, n, 2)
    kappa = _spread(shape, n - 2, 1) + [1, 0]
    forms, comps, _, _ = _field_system(rng, n, False, mu, kappa)
    alpha = _form_product(forms, mu, n)
    fi = _form_product(forms, kappa, n)
    _, entries = _jacobian_casimirs(shape, rng, n, degs)
    alpha_re, alpha_im = X.realify(alpha)
    modsq = X.radd(X.rmul(alpha_re, alpha_re), X.rmul(alpha_im, alpha_im))
    fi_re, _ = X.realify(fi)
    field_text = " ; ".join(X.fmt(c) for c in comps)
    alpha_text = X.fmt(alpha)
    cli_seed = seed * 1000 + slot
    x0_lib = [rng.uniform(-0.5, 0.5) for _ in range(2 * n)]
    sm = X.SplitMix64(cli_seed)
    x0_cli = [sm.next_symmetric(1.0) for _ in range(2 * n)]
    sample_seed = seed * 1000 + 500 + slot
    sm = X.SplitMix64(sample_seed)
    sample_max = 0.0
    for _ in range(SAMPLE_COUNT):
        pt = [complex(sm.next_symmetric(1.0), sm.next_symmetric(1.0)) for _ in range(n)]
        sample_max = max(sample_max, abs(X.ceval_float(alpha, pt)))
    nsteps = int(round(RK4_T_END / RK4_STEP))
    # objects the library path receives, parsed from the generated text
    Z = hm.calculus.VectorField(n, [hm.parser.parse_expr(X.fmt(c), n) for c in comps])
    A = hm.parser.parse_expr(alpha_text, n)
    F = hm.parser.parse_expr(X.fmt(fi), n)
    P = hm.poisson.Bivector(n, {k: hm.parser.parse_expr(X.fmt(p), n) for k, p in entries.items()})
    realify_argv = ["realify", "--dim", str(n), "--alpha", alpha_text, "--format", "json"]
    integrate_argv = ["integrate", "--dim", str(n), "--field", field_text, "--seed", str(cli_seed),
                      "--step", repr(RK4_STEP), "--t-end", repr(RK4_T_END), "--format", "json"]
    R = hm.realify
    N = hm.numcheck

    def cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = hm.cli.main(argv)
        return code, buf.getvalue()

    def run():
        field_re, _ = R.realify_field(Z)
        u = R.modsq(A)
        residual = R.real_lm_residual(u, field_re)
        q_re, _ = R.realify_poisson(P)
        poisson_ok = R.is_real_poisson(q_re)
        traj = N.integrate(field_re, x0_lib, RK4_T_END, RK4_STEP)
        drift = N.first_integral_drift(F.realify_split()[0], traj)
        sampled = N.residual_sample(A, SAMPLE_COUNT, sample_seed)
        return (u.terms, residual.is_zero(), poisson_ok, len(traj.times) - 1, drift, sampled,
                cli(realify_argv), cli(integrate_argv))

    def check(outcome):
        terms, lm_zero, poisson_ok, steps, drift, sampled, (rc, rout), (ic, iout) = outcome
        errors = []
        if terms != modsq:
            errors.append("modsq differs from the independent expansion")
        if not lm_zero:
            errors.append("|alpha|^2 is not a real last multiplier")
        if not poisson_ok:
            errors.append("realified Poisson structure fails Jacobi")
        if steps != nsteps:
            errors.append(f"integrate took {steps} steps, expected {nsteps}")
        scale = 1.0 + abs(X.reval_float(fi_re, x0_lib))
        if not drift <= DRIFT_TOL * scale:
            errors.append(f"first-integral drift {drift} over tolerance")
        if not math.isclose(sampled, sample_max, rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"residual_sample {sampled} != independent {sample_max}")
        if rc != 0 or ic != 0:
            errors.append(f"cli exit codes {rc}, {ic}")
            return errors
        rep = json.loads(rout)
        if (parse_real(rep["re"], n), parse_real(rep["im"], n), parse_real(rep["modsq"], n)) != (alpha_re, alpha_im, modsq):
            errors.append("cli realify output differs from the independent split")
        rep = json.loads(iout)
        start = X.reval_float(fi_re, x0_cli)
        end = X.reval_float(fi_re, rep["state_final"])
        if rep["steps"] != nsteps or rep["truncated"] or not abs(end - start) <= DRIFT_TOL * (1.0 + abs(start)):
            errors.append("cli integrate does not conserve the first integral")
        return errors

    inputs = "\n".join([field_text, alpha_text, X.fmt(fi),
                        ";".join(f"{k}:{X.fmt(p)}" for k, p in sorted(entries.items())),
                        repr(x0_lib), str(cli_seed), str(sample_seed)])
    return Job(name=f"realify-{slot}-c{n}", inputs=inputs, tasks=9, run=run, check=check)


WORKLOADS = {
    "shipped-small": shipped_small,
    "poisson-heavy": poisson_heavy,
    "darboux-division": darboux_division,
    "realify-float": realify_float,
}


def build(workload, seed, hm, size=None):
    return WORKLOADS[workload](seed, hm, size)


def digest(jobs):
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.inputs.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def coefficient_pool(seed, hm):
    """The Q(i) coefficients of the poisson-heavy inputs for `seed`, as the
    GaussianRational objects holomult's parser makes of them."""
    pool = []
    for job in poisson_heavy(seed, hm):
        n = int(job.inputs.split("\n", 2)[1])
        for line in job.inputs.splitlines():
            if " = " in line:
                pool += hm.parser.parse_expr(line.split(" = ", 1)[1], n).terms.values()
    return pool
