#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (about ten seconds on 2 cores).

    python3 perfbench/selftest.py

Checks, in order:
  * every workload runs clean at a tiny size (error rate 0);
  * the checker is not vacuous: a wrong expected verdict and a one-byte
    change of a stored report are each counted as a failed job;
  * the theorem-based expectations of a seeded poisson-heavy sample agree
    with an independent sympy computation of the Jacobiator, the modular
    field and the bivector last-multiplier residual;
  * the default-seed input digests equal the pinned ones in reference.json;
  * traced count metrics repeat exactly between two traced passes;
  * BENCHMARK.json, reference.json and the code name the same metrics.
"""

import json
import os
import sys

import run as R

os.environ.update(R.THREAD_ENV)
sys.path.insert(0, str(R.SRC))

import holomult  # noqa: E402
import holomult.cli  # noqa: E402,F401
import sympy  # noqa: E402
from sympy.parsing.sympy_parser import parse_expr  # noqa: E402

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

BENCHMARK = R.ROOT / "BENCHMARK.json"


def say(msg):
    print(f"[selftest] {msg}", flush=True)


def check_clean():
    for name in W.WORKLOADS:
        jobs = W.build(name, 1, holomult, size=2)
        _, _, errors, failed, _ = R.run_pass(jobs)
        assert failed == 0 and not errors, (name, errors)
        say(f"{name}: {len(jobs)} jobs, error rate 0")


def check_not_vacuous():
    job = W.build("poisson-heavy", 1, holomult, size=1)[0]
    expected = list(job.expected)
    kind, verdict, exps = expected[0]
    expected[0] = (kind, "fail" if verdict == "pass" else "pass", exps)
    wrong = W._manifest_job(job.name, job.inputs, expected, holomult)
    _, _, errors, failed, _ = R.run_pass([wrong])
    assert failed == 1 and errors, errors
    say(f"wrong expected verdict is a failure: {errors[0]}")

    stem = W.SHIPPED[0]
    path = W.ROOT / "manifests" / f"{stem}.mf"
    good = (W.HERE / "expected" / f"{stem}.json").read_text(encoding="utf-8")
    pos = good.index('"pass"') + 1
    mutated = good[:pos] + ("P" if good[pos] != "P" else "p") + good[pos + 1:]
    assert len(mutated) == len(good) and sum(a != b for a, b in zip(good, mutated)) == 1
    _, _, errors, failed, _ = R.run_pass([W._shipped_job(stem, path, mutated, holomult)])
    assert failed == 1 and errors, errors
    say(f"one-byte report change is a failure: {errors[0]}")


def _sympy_manifest(text):
    """(dimension, polys, bivector matrix) from generated manifest text."""
    n = int(text.split("[dim]\n", 1)[1].split("\n", 1)[0])
    syms = sympy.symbols(f"z1:{n + 1}")
    names = {f"z{k + 1}": s for k, s in enumerate(syms)}
    names["i"] = sympy.I

    def expr(body):
        return sympy.expand(parse_expr(body.replace("^", "**"), local_dict=names))

    polys, P = {}, sympy.zeros(n, n)
    section = None
    for line in text.splitlines():
        if line.startswith("["):
            section = line
        elif section == "[poly]":
            name, body = line.split(" = ", 1)
            polys[name] = expr(body)
        elif section == "[bivector]":
            head, body = line.split(" = ", 1)
            _, i, j = head.split()
            P[int(i) - 1, int(j) - 1] = expr(body)
            P[int(j) - 1, int(i) - 1] = -P[int(i) - 1, int(j) - 1]
    return syms, polys, P


def check_sympy_oracle():
    jobs = W.build("poisson-heavy", 1, holomult)
    # a Jacobian, a zero-row-sum log-canonical, a generic and a log-canonical
    # bracket with nonzero row sums
    for job in (jobs[0], jobs[1], jobs[2], jobs[4]):
        syms, polys, P = _sympy_manifest(job.inputs)
        n = len(syms)
        d = sympy.diff
        jac = [sympy.expand(sum(P[l, k] * d(P[i, j], syms[l]) + P[l, i] * d(P[j, k], syms[l])
                                + P[l, j] * d(P[k, i], syms[l]) for l in range(n)))
               for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]
        modular = [sympy.expand(sum(d(P[i, j], syms[j]) for j in range(n))) for i in range(n)]
        lines = job.inputs.split("[task]\n", 1)[1].splitlines()
        alpha = polys[next(t.split()[1] for t in lines if t.startswith("bivector_lm"))]
        lm = [sympy.expand(sum(d(alpha * P[i, j], syms[j]) for j in range(n))) for i in range(n)]
        oracle = {"jacobi": all(v == 0 for v in jac), "modular_zero": all(v == 0 for v in modular),
                  "bivector_lm": all(v == 0 for v in lm)}
        for kind, verdict, _ in job.expected:
            if kind in oracle:
                assert oracle[kind] == (verdict == "pass"), (job.name, kind, verdict)
        say(f"sympy agrees on {job.name}: {oracle}")


def check_digests():
    pinned = json.loads(R.REFERENCE.read_text(encoding="utf-8"))
    for name in W.WORKLOADS:
        got = W.digest(W.build(name, pinned["default_seed"], holomult))
        assert got == pinned["input_digests"][name], (name, got)
    say(f"default-seed input digests match the pins (seed {pinned['default_seed']})")


def check_trace_counts():
    tr = T.Tracer(holomult)
    for name in W.WORKLOADS:
        jobs = W.build(name, 1, holomult, size=2)
        snaps = []
        for _ in range(2):
            tr.reset(keep_spans=False)
            tr.install()
            try:
                _, _, errors, failed, wall = R.run_pass(jobs, tr)
            finally:
                tr.uninstall()
            assert failed == 0, errors
            snaps.append(tr.snapshot(wall, wall))
        counts = {k: snaps[0][k] for k in T.COUNT_METRICS}
        assert counts == {k: snaps[1][k] for k in T.COUNT_METRICS}, name
        assert counts["poly.mul.term_products"] > 0
        say(f"{name}: traced counts repeat ({counts['poly.mul.term_products']} term products)")


def check_names():
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    reference = json.loads(R.REFERENCE.read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(R.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(T.LAYER_METRICS)
    gated = [w["name"] for w in bench["workloads"]]
    assert sorted(gated + list(reference["ungated_workloads"])) == sorted(W.WORKLOADS)
    assert set(reference["layer_map"]) == {name for name, _ in T.LAYER_METRICS}
    for wl in gated:
        assert set(reference["baseline"][wl]) == {name for name, _ in R.END_TO_END} | {"job_ms.p90", "error_rate"}, wl
    say("BENCHMARK.json, reference.json and the code name the same metrics")


def main():
    check_clean()
    check_not_vacuous()
    check_sympy_oracle()
    check_digests()
    check_trace_counts()
    check_names()
    say("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
