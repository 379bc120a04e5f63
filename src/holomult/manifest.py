"""Line-oriented manifest format and the verification task runner.

A manifest is a sectioned text file declaring one problem: dimension, named
polynomials, vector fields, bivectors, optional metric and volume weight,
followed by an ordered list of verification tasks.  Example::

    [dim]
    3
    [poly]
    alpha = (z1)^2 + (z2)^2 + (z3)^2 - z1*z2*z3
    [bivector]
    P 1 2 = 2*z3 - z1*z2
    P 1 3 = z1*z3 - 2*z2
    P 2 3 = 2*z1 - z2*z3
    [task]
    jacobi P
    modular_zero P
    bivector_lm alpha P

The object syntax (`parse_field`, `parse_constant`, `add_bivector_entry`)
is shared with the CLI.  `TASKS` maps each task kind to the object kinds of
its arguments and the function that checks it; most return a residual that
is zero exactly when the task passes.  `run_tasks` binds every task (kind,
arity, names) before it runs any.

Task verdicts are `pass`/`fail` for predicates and `found`/`inconsistent`
for searches.  Exit-code policy: 0 when every task passes, 1 when some task
is a mathematical negative, 2 for malformed input (reported with a line
number).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import multipliers, poisson
from .calculus import Multivector, VectorField, VolumeForm, divergence
from .metric import HoloMetric, gradient_lm_residual
from .parser import parse_expr
from .poisson import Bivector
from .poly import CPoly, poly_summary
from .scalars import GaussianRational

SCHEMA = "holomult-report/1"


class ManifestError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# parsing: the object syntax (shared with the CLI), then whole manifests
# ---------------------------------------------------------------------------


MAX_DIMENSION = 32


def _check_dimension(dim: int) -> None:
    """The one dimension rule, for a manifest's `[dim]` and the CLI's `--dim`."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if dim > MAX_DIMENSION:
        raise ValueError(f"dimension exceeds the limit of {MAX_DIMENSION}")


def parse_field(text: str, dim: int) -> VectorField:
    """A vector field written as `dim` ';'-separated component expressions."""
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != dim:
        raise ValueError(f"field needs {dim} ';'-separated components, got {len(parts)}")
    return VectorField(dim, [parse_expr(p, dim) for p in parts])


def parse_constant(text: str, slot: str) -> GaussianRational:
    """A constant expression for the named slot (e.g. "volume weight")."""
    if "z" in text:  # the grammar's only use of 'z' is a variable
        raise ValueError(f"{slot} must be a constant, got {text.strip()!r}")
    return parse_expr(text, 0).terms.get((), GaussianRational(0))


def add_bivector_entry(
    entries: Dict[Tuple[int, int], CPoly], dim: int, i: int, j: int, text: str
) -> None:
    """Store entry P^{ij} = text under its upper-triangular key, negated when i > j."""
    if not (1 <= i <= dim and 1 <= j <= dim) or i == j:
        raise ValueError(f"bivector indices ({i},{j}) out of range for dimension {dim}")
    value = parse_expr(text.strip(), dim)
    key, value = ((i, j), value) if i < j else ((j, i), -value)
    if key in entries:
        raise ValueError(f"duplicate bivector entry ({i},{j})")
    entries[key] = value


def _parse_metric(text: str, dim: int) -> HoloMetric:
    rows = [[parse_constant(c, "metric entry") for c in row.split(",")] for row in text.split(";")]
    metric = HoloMetric(rows)
    if metric.n != dim:
        raise ValueError(f"metric is {metric.n}x{metric.n} but the dimension is {dim}")
    return metric


@dataclass
class Task:
    kind: str
    args: List[str]
    line: int


@dataclass
class Manifest:
    dimension: int
    polys: Dict[str, CPoly]
    fields: Dict[str, VectorField]
    bivectors: Dict[str, Bivector]
    metrics: Dict[str, HoloMetric]
    volume: VolumeForm
    tasks: List[Task]


_SECTIONS = ("dim", "poly", "field", "bivector", "metric", "volume", "task")


def _at_line(lineno: int, build, *args):
    """Call build(*args), reporting any ValueError at the given manifest line."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ManifestError(str(exc), lineno) from exc


def parse_manifest(text: str) -> Manifest:
    dimension: Optional[int] = None
    volume_line: Optional[Tuple[str, int]] = None
    definitions: Dict[str, Dict[str, Tuple[str, int]]] = {"poly": {}, "field": {}, "metric": {}}
    bivector_lines: List[Tuple[str, int, int, str, int]] = []
    tasks: List[Task] = []

    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ManifestError(f"unknown section [{section}]", lineno)
            continue
        if section is None:
            raise ManifestError("content before any section header", lineno)
        if section == "dim":
            if dimension is not None:
                raise ManifestError("dimension declared twice", lineno)
            try:
                dimension = int(line)
            except ValueError:
                raise ManifestError(f"dimension must be an integer, got {line!r}", lineno)
            _at_line(lineno, _check_dimension, dimension)
        elif section == "volume":
            if volume_line is not None:
                raise ManifestError("volume weight declared twice", lineno)
            volume_line = (line, lineno)
        elif section in definitions:
            if "=" not in line:
                raise ManifestError("expected 'name = ...'", lineno)
            name, body = (part.strip() for part in line.split("=", 1))
            if not name.isidentifier():
                raise ManifestError(f"bad name {name!r}", lineno)
            if name in definitions[section]:
                raise ManifestError(f"duplicate definition of {name!r}", lineno)
            definitions[section][name] = (body, lineno)
        elif section == "bivector":
            try:
                head, body = line.split("=", 1)
                name, i, j = head.split()
                i, j = int(i), int(j)
            except ValueError:
                raise ManifestError("bivector entries look like 'P 1 2 = expr'", lineno) from None
            if not name.isidentifier():
                raise ManifestError(f"bad name {name!r}", lineno)
            bivector_lines.append((name, i, j, body, lineno))
        elif section == "task":
            pieces = line.split()
            tasks.append(Task(kind=pieces[0], args=pieces[1:], line=lineno))

    if dimension is None:
        raise ManifestError("manifest must declare [dim]", 0)

    volume = VolumeForm(dimension)
    if volume_line is not None:
        weight, lineno = volume_line
        volume = _at_line(
            lineno, lambda: VolumeForm(dimension, parse_constant(weight, "volume weight"))
        )

    def build(section: str, parse) -> dict:
        return {
            name: _at_line(lineno, parse, body, dimension)
            for name, (body, lineno) in definitions[section].items()
        }

    polys = build("poly", parse_expr)
    fields = build("field", parse_field)
    grouped: Dict[str, Dict[Tuple[int, int], CPoly]] = {}
    for name, i, j, body, lineno in bivector_lines:
        _at_line(lineno, add_bivector_entry, grouped.setdefault(name, {}), dimension, i, j, body)
    return Manifest(
        dimension=dimension,
        polys=polys,
        fields=fields,
        bivectors={name: Bivector(dimension, entries) for name, entries in grouped.items()},
        metrics=build("metric", _parse_metric),
        volume=volume,
        tasks=tasks,
    )


def load_manifest(path: str) -> Manifest:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_manifest(handle.read())


# ---------------------------------------------------------------------------
# task table and execution
# ---------------------------------------------------------------------------


# Object kinds of task arguments: the manifest section a name is looked up in.
POLY, FIELD, BIVECTOR, METRIC = "polynomial", "field", "bivector", "metric"


class TaskKind(NamedTuple):
    """Argument object kinds of a task and the function that checks it.

    `run(omega, *objects)` returns a residual (a CPoly or a Multivector, a
    vector field included; the task passes exactly when it is zero) or, for
    a task that is not a residual check, its own (verdict, residual,
    derived).  When `variadic`, the last argument kind repeats one or more
    times.
    """

    args: Tuple[str, ...]
    run: Callable[..., object]
    variadic: bool = False


def _darboux_search(omega: VolumeForm, field: VectorField, *candidates: CPoly):
    solution = multipliers.darboux_multiplier_search(field, list(candidates), omega)
    if solution is None:
        return "inconsistent", "-", {}
    return "found", "0", {
        "exponents": [str(e) for e in solution.exponents],
        "cofactors": [pair.cofactor.format() for pair in solution.basis],
        "nullspace": [[str(x) for x in vec] for vec in solution.nullspace],
    }


def _unimodular(omega: VolumeForm, p: Bivector, h: CPoly):
    return ("pass" if poisson.is_unimodular_with(p, h, omega) else "fail"), "-", {}


# The library functions are looked up when a task runs, through their module
# or this module's globals, so that wrappers installed on them see the call.
TASKS: Dict[str, TaskKind] = {
    "first_integral": TaskKind(
        (POLY, FIELD), lambda omega, f, z: multipliers.is_first_integral(f, z).residual
    ),
    "last_multiplier": TaskKind(
        (POLY, FIELD), lambda omega, a, z: multipliers.is_last_multiplier(a, z, omega).residual
    ),
    "inverse_multiplier": TaskKind(
        (POLY, FIELD), lambda omega, b, z: multipliers.is_inverse_multiplier(b, z, omega).residual
    ),
    "darboux_search": TaskKind((FIELD, POLY), _darboux_search, variadic=True),
    "jacobi": TaskKind((BIVECTOR,), lambda omega, p: poisson.jacobiator(p)),
    "modular_zero": TaskKind((BIVECTOR,), lambda omega, p: poisson.modular_field(p, omega)),
    "self_multiplier": TaskKind(
        (POLY, BIVECTOR), lambda omega, f, p: poisson.self_multiplier_residual(f, p, omega)
    ),
    "bivector_lm": TaskKind(
        (POLY, BIVECTOR), lambda omega, a, p: poisson.bivector_lm_check(a, p, omega).residual
    ),
    "casimir": TaskKind((POLY, BIVECTOR), lambda omega, f, p: poisson.hamiltonian_field(f, p)),
    "unimodular": TaskKind((BIVECTOR, POLY), _unimodular),
    "exactness": TaskKind((BIVECTOR,), lambda omega, p: poisson.exactness_check(p, omega).residual),
    "hamiltonian_lm": TaskKind(
        (POLY, POLY, BIVECTOR),
        lambda omega, a, f, p: poisson.hamiltonian_lm_residual(a, f, p, omega),
    ),
    "gradient_lm": TaskKind(
        (POLY, POLY, METRIC), lambda omega, a, f, g: gradient_lm_residual(a, f, g)
    ),
    "divergence_zero": TaskKind((FIELD,), lambda omega, z: divergence(z, omega)),
}


@dataclass
class TaskRecord:
    task_id: int
    kind: str
    args: List[str]
    verdict: str  # pass | fail | found | inconsistent
    residual: str
    derived: Dict[str, object] = dataclass_field(default_factory=dict)
    timing_ms: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.verdict in ("pass", "found")


@dataclass
class Report:
    dimension: int
    records: List[TaskRecord]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.records)

    def exit_code(self) -> int:
        return 0 if self.all_ok else 1


def _bind(task: Task, objects: Dict[str, dict]) -> Tuple[TaskKind, list]:
    """Look up the task's kind and argument objects, checking the arity."""
    spec = TASKS.get(task.kind)
    if spec is None:
        raise ManifestError(f"unknown task kind {task.kind!r}", task.line)
    kinds = spec.args
    if spec.variadic and len(task.args) > len(kinds):
        kinds += (kinds[-1],) * (len(task.args) - len(kinds))
    if len(task.args) != len(kinds):
        least = "at least " if spec.variadic else ""
        raise ManifestError(f"task {task.kind} takes {least}{len(spec.args)} arguments", task.line)
    values = []
    for kind, name in zip(kinds, task.args):
        if name not in objects[kind]:
            raise ManifestError(f"undefined {kind} {name!r}", task.line)
        values.append(objects[kind][name])
    return spec, values


def _judge(residual) -> Tuple[str, str, Dict[str, object]]:
    """Verdict and summary of a residual: pass when it is zero, else its first nonzero
    part (a multivector's components are taken in sorted index order)."""
    if isinstance(residual, Multivector):
        parts = [poly for _, poly in sorted(residual.comps.items())]
    else:
        parts = [residual]
    worst = next((c for c in parts if c), None)
    return ("pass", "0", {}) if worst is None else ("fail", poly_summary(worst), {})


def run_tasks(manifest: Manifest, include_timings: bool = False) -> Report:
    objects = {POLY: manifest.polys, FIELD: manifest.fields, BIVECTOR: manifest.bivectors,
               METRIC: manifest.metrics}
    bound = [(task, *_bind(task, objects)) for task in manifest.tasks]
    records: List[TaskRecord] = []
    for task_id, (task, spec, values) in enumerate(bound, start=1):
        started = time.perf_counter()
        result = _at_line(task.line, spec.run, manifest.volume, *values)
        verdict, residual, derived = result if isinstance(result, tuple) else _judge(result)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        records.append(
            TaskRecord(
                task_id=task_id,
                kind=task.kind,
                args=list(task.args),
                verdict=verdict,
                residual=residual,
                derived=derived,
                timing_ms=elapsed_ms if include_timings else None,
            )
        )
    return Report(dimension=manifest.dimension, records=records)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def emit_report(report: Report, fmt: str = "text") -> str:
    if fmt == "json":
        payload = {
            "schema": SCHEMA,
            "dimension": report.dimension,
            "tasks": [
                {
                    "id": rec.task_id,
                    "kind": rec.kind,
                    "args": rec.args,
                    "verdict": rec.verdict,
                    "residual": rec.residual,
                    "derived": rec.derived,
                    "timing_ms": rec.timing_ms,
                }
                for rec in report.records
            ],
            "summary": {
                "total": len(report.records),
                "passed": sum(1 for r in report.records if r.ok),
                "failed": sum(1 for r in report.records if not r.ok),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"dimension {report.dimension}, {len(report.records)} task(s)"]
    for rec in report.records:
        timing = f"  [{rec.timing_ms:.1f} ms]" if rec.timing_ms is not None else ""
        args = " ".join(rec.args)
        lines.append(f"{rec.task_id:3d}. {rec.kind} {args}: {rec.verdict}{timing}")
        if rec.residual not in ("0", "-"):
            lines.append(f"     residual: {rec.residual}")
        for key, value in rec.derived.items():
            lines.append(f"     {key}: {value}")
    passed = sum(1 for r in report.records if r.ok)
    lines.append(f"{passed}/{len(report.records)} passed")
    return "\n".join(lines) + "\n"
