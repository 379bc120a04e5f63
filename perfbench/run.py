#!/usr/bin/env python3
"""holomult benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the holomult under test is the `src/` next to this
directory.  Load is one closed-loop client in one process and one thread:
each job starts when the previous one has ended.  A job is one manifest
check or one realify pipeline; `run` parts are timed, the answer checks are
not.  Jobs are run in whole passes over the workload's pool while another
pass fits in `--seconds`.

--trace 0 prints the end-to-end metrics of END_TO_END, then job_ms.p90 and
error_rate; --trace 1 wraps holomult's public functions (see tracer.py),
alternates untraced and traced passes over the same pool, and prints the
per-layer metrics.  The last stdout line is one JSON object {correct,
attempted, failed, metrics}; a fuller record with the environment goes to
perfbench/out/.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread for any BLAS/OpenMP pool numpy may start; set before holomult
# (and so numpy) is imported, and inherited by the set-up subprocesses.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 10
# The end-to-end metrics in the result line.  job_ms.p90 and error_rate are
# printed and recorded but not in it: on a shared machine the tail of the
# smallest workload moves with the machine's speed more than a 0.25 bound
# allows, and error_rate is 0 on a correct program.
END_TO_END = (("job_ms.p50", "ms"), ("tasks_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_seconds():
    """Wall time of a fresh interpreter importing holomult.  The wait is a
    plain blocking one: a wait with a timeout polls with sleeps of up to
    50 ms, which would quantize the measurement."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    code = subprocess.Popen([sys.executable, "-c", "import holomult"], env=env, cwd=ROOT).wait()
    if code != 0:
        raise RuntimeError(f"importing holomult in a fresh interpreter exited with {code}")
    return time.perf_counter() - t0


def percentile_with_tail(times, q=0.9, tail=10):
    """The q-th percentile, or the highest one with `tail` samples beyond it
    when there are too few samples; returns (value, percentile used)."""
    ordered = sorted(times)
    n = len(ordered)
    idx = min(math.ceil(q * n) - 1, n - tail - 1)
    idx = max(idx, 0)
    return ordered[idx], (idx + 1) / n


def run_pass(jobs, tracer=None):
    """Run every job once.

    Returns (job seconds, tasks of the jobs that passed, error lines,
    failed job count, wall seconds of the pass).
    """
    times, tasks, errors, failed = [], 0, [], 0
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        t0 = time.perf_counter()
        try:
            outcome = job.run()
        except Exception as exc:  # a route disagreement or any crash fails the job
            times.append(time.perf_counter() - t0)
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            times.append(time.perf_counter() - t0)
            problems = job.check(outcome)
        if problems:
            failed += 1
            errors += [f"{job.name}: {p}" for p in problems]
        else:
            tasks += job.tasks
    return times, tasks, errors, failed, time.perf_counter() - start


def environment(args, digest):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": digest,
        "load": "closed loop, 1 client, 1 process, 1 thread",
    }


def settle(jobs):
    """Warm up on the first jobs (imports, caches, lazy set-up), then move the
    benchmark's own long-lived objects out of the collector's generations so
    they do not add to the cost of holomult's garbage collections."""
    run_pass(jobs[:2])
    gc.collect()
    gc.freeze()


def untraced(jobs, seconds):
    """Whole passes while the next one is expected to fit in `seconds`.

    A fresh-interpreter import is timed every seconds / SETUP_SAMPLES, after
    the pass in progress, so the set-up samples spread over the run as the
    job samples do and a short slow spell of the machine moves only a few
    of them.  Returns (job seconds, tasks, errors, failed jobs, set-up
    seconds samples).
    """
    settle(jobs)
    import_seconds()  # untimed: byte-code caches exist, as they would for a user
    all_times, tasks, errors, failed_jobs, setup = [], 0, [], 0, []
    begin = time.perf_counter()
    while True:
        if time.perf_counter() - begin >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(import_seconds())
        times, done, errs, failed, wall = run_pass(jobs)
        all_times += times
        tasks += done
        failed_jobs += failed
        errors += errs
        if time.perf_counter() - begin + wall > seconds:
            break
    return all_times, tasks, errors, failed_jobs, setup


def traced(jobs, seconds, hm, seed, spans_path):
    import tracer as T
    import workloads as W

    tr = T.Tracer(hm)
    settle(jobs)
    snaps, errors, failed_jobs, attempted = [], [], 0, 0
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        _, _, errs_u, failed_u, wall_u = run_pass(jobs)
        tr.reset(keep_spans=not snaps)
        tr.install()
        try:
            _, _, errs_t, failed_t, wall_t = run_pass(jobs, tr)
        finally:
            tr.uninstall()
        snaps.append(tr.snapshot(wall_u, wall_t))
        if len(snaps) == 1:
            spans_path.parent.mkdir(exist_ok=True)
            tr.write_spans(spans_path)
            tr.spans = []
        errors += errs_u + errs_t
        failed_jobs += failed_u + failed_t
        attempted += 2 * len(jobs)
        if time.perf_counter() - begin + (time.perf_counter() - round_start) > seconds:
            break
    for name in T.COUNT_METRICS:
        if len({s[name] for s in snaps}) != 1:
            errors.append(f"count metric {name} differs between traced passes")
    values = T.scalar_costs(W.coefficient_pool(seed, hm))
    for name, _ in T.LAYER_METRICS:
        if name in T.COUNT_METRICS:
            values[name] = snaps[0][name]
        elif name not in values:
            values[name] = statistics.median(s[name] for s in snaps)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in T.LAYER_METRICS}
    return metrics, errors, failed_jobs, attempted, len(snaps)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)

    if not (SRC / "holomult" / "__init__.py").is_file():
        print(f"error: holomult sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import holomult
    import holomult.cli  # noqa: F401  (not imported by the package itself)
    import workloads as W

    if Path(holomult.__file__).resolve().parent != (SRC / "holomult").resolve():
        print(f"error: imported holomult from {holomult.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2

    jobs = W.build(args.workload, args.seed, holomult)
    digest = W.digest(jobs)
    errors = []
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    pinned = reference.get("input_digests", {}).get(args.workload)
    if args.seed == reference.get("default_seed") and pinned and pinned != digest:
        errors.append(f"input digest {digest} differs from the pinned {pinned}")

    lines, reported = [], {}
    if args.trace == 0:
        times, tasks, errs, failed, setup = untraced(jobs, args.seconds)
        attempted = len(times)
        errors += errs
        p90, p90_q = percentile_with_tail(times)
        values = {
            "job_ms.p50": statistics.median(times) * 1000.0,
            "tasks_per_s": tasks / sum(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        reported["job_ms.p90"] = {"value": p90 * 1000.0, "unit": "ms"}
        lines.append(f"jobs: {attempted} ({len(jobs)} per pass); job_ms.p90 is the "
                     f"p{100 * p90_q:.1f} of them; tasks per job: {[j.tasks for j in jobs]}; "
                     f"set-up samples: {len(setup)}")
        passes = None
    else:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        metrics, errs, failed, attempted, passes = traced(jobs, args.seconds, holomult, args.seed,
                                                          spans_path)
        errors += errs
        lines.append(f"jobs: {attempted} over {passes} untraced + {passes} traced passes")
    error_rate = failed / attempted
    correct = not errors
    env = environment(args, digest)
    for key in ("nproc", "python", "numpy", "seed", "input_digest"):
        lines.append(f"{key}: {env[key]}")
    lines.append(f"threads: {env['thread_env']}")
    for name, m in {**metrics, **reported}.items():
        lines.append(f"{name:<52} {m['value']:.6g} {m['unit']}")
    lines.append(f"{'error_rate':<52} {error_rate:.6g} ratio ({failed} of {attempted} jobs)")
    for err in errors[:20]:
        lines.append(f"FAIL {err}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    reported["error_rate"] = {"value": error_rate, "unit": "ratio"}
    record = dict(result, reported=reported, errors=errors, environment=env, passes=passes)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
