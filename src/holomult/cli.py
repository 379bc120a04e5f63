"""Command-line interface.

`check` runs a manifest of verification tasks; the remaining subcommands are
one-shot calculators over inline expressions.  Each subcommand's handler is
bound with `set_defaults(run=...)`; the field, bivector-entry and volume
syntax is the manifest's (`holomult.manifest`).  Exit codes: 0 success / all
tasks passed, 1 some verification task failed, 2 malformed input, 3 two
exact routes of a cross-checked computation disagreed (an internal defect).

`main` builds its argument parser once per process, on its first call, and
reuses it: parsing keeps no state between calls, so each call still starts
from the defaults.  `build_parser()` returns a fresh parser every time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Dict, Tuple

from .calculus import VolumeForm, divergence, lie_bracket
from .manifest import (
    _check_dimension, add_bivector_entry, emit_report, load_manifest, parse_constant, parse_field,
    run_tasks,
)
from .numcheck import SplitMix64, integrate
from .parser import parse_expr
from .poisson import Bivector, exactness_check, modular_field
from .poly import CPoly
from .realify import _sum_of_squares, realify_field


class CliError(ValueError):
    pass


def _parse_bivector(text: str, dim: int) -> Bivector:
    entries: Dict[Tuple[int, int], CPoly] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            head, body = chunk.split(":", 1)
            i, j = map(int, head.split())
        except ValueError:
            raise CliError(f"bivector entry {chunk!r} must look like 'i j: expr'") from None
        add_bivector_entry(entries, dim, i, j, body)
    return Bivector(dim, entries)


def _volume(args) -> VolumeForm:
    return VolumeForm(args.dim, parse_constant(args.volume_weight, "volume weight"))


def _write(output: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)


def _emit(payload: dict, text_lines, args) -> None:
    if args.format == "json":
        _write(json.dumps(payload, indent=2) + "\n", args)
    else:
        _write("\n".join(text_lines) + "\n", args)


def _check(args) -> int:
    report = run_tasks(load_manifest(args.manifest), include_timings=args.timings)
    _write(emit_report(report, args.format), args)
    return report.exit_code()


def _div(args) -> int:
    result = divergence(parse_field(args.field, args.dim), _volume(args))
    _emit({"command": "div", "result": result.format()}, [result.format()], args)
    return 0


def _bracket(args) -> int:
    if len(args.field) != 2:
        raise CliError("bracket needs --field given exactly twice")
    z = parse_field(args.field[0], args.dim)
    w = parse_field(args.field[1], args.dim)
    result = lie_bracket(z, w)
    comps = [c.format() for c in result.components]
    _emit({"command": "bracket", "components": comps}, comps, args)
    return 0


def _curl(args) -> int:
    result = exactness_check(_parse_bivector(args.bivector, args.dim), _volume(args))
    comps = [c.format() for c in result.residual.components]
    payload = {"command": "curl", "components": comps, "exact": result.exact}
    _emit(payload, comps + [f"exact: {result.exact}"], args)
    return 0


def _modular(args) -> int:
    result = modular_field(_parse_bivector(args.bivector, args.dim), _volume(args))
    comps = [c.format() for c in result.components]
    _emit({"command": "modular", "components": comps}, comps, args)
    return 0


def _realify(args) -> int:
    if (args.field is None) == (args.alpha is None):
        raise CliError("realify needs exactly one of --field or --alpha")
    if args.field is not None:
        field_re, field_im = realify_field(parse_field(args.field, args.dim))
        payload = {
            "command": "realify",
            "real_field": [c.format() for c in field_re.components],
            "imag_field": [c.format() for c in field_im.components],
        }
        lines = ["2*Re Z components:", *(f"  {c}" for c in payload["real_field"])]
        lines += ["2*Im Z components:", *(f"  {c}" for c in payload["imag_field"])]
        _emit(payload, lines, args)
        return 0
    alpha = parse_expr(args.alpha, args.dim)
    re, im = alpha.realify_split()
    payload = {
        "command": "realify",
        "re": re.format(),
        "im": im.format(),
        "modsq": _sum_of_squares(re, im).format(),
    }
    lines = [f"re: {payload['re']}", f"im: {payload['im']}", f"|.|^2: {payload['modsq']}"]
    _emit(payload, lines, args)
    return 0


def _integrate(args) -> int:
    field_re, _ = realify_field(parse_field(args.field, args.dim))
    if args.x0 is not None:
        x0 = [float(v) for v in args.x0.split(",")]
        if len(x0) != 2 * args.dim:
            raise CliError(f"--x0 needs {2 * args.dim} comma-separated values")
    else:
        rng = SplitMix64(args.seed)
        x0 = [rng.next_symmetric(1.0) for _ in range(2 * args.dim)]
    traj = integrate(field_re, x0, args.t_end, args.step)
    final = [float(v) for v in traj.states[-1]]
    payload = {
        "command": "integrate",
        "steps": len(traj.times) - 1,
        "t_final": float(traj.times[-1]),
        "state_final": final,
        "truncated": traj.truncated,
    }
    lines = [f"{key}: {value}" for key, value in payload.items() if key != "command"]
    _emit(payload, lines, args)
    return 0


def _add_common(sub, run):
    """Add the output options every subcommand shares and bind its handler."""
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")
    sub.set_defaults(run=run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holomult",
        description="exact verification of last multipliers for polynomial holomorphic systems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="run the tasks of a manifest file")
    check.add_argument("manifest")
    check.add_argument("--timings", action="store_true", help="include task timings in the report")
    _add_common(check, _check)

    div = subs.add_parser("div", help="divergence of an inline vector field")
    div.add_argument("--dim", type=int, required=True)
    div.add_argument("--field", required=True, help="';'-separated component expressions")
    div.add_argument("--volume-weight", default="1")
    _add_common(div, _div)

    bracket = subs.add_parser("bracket", help="Lie bracket of two inline fields")
    bracket.add_argument("--dim", type=int, required=True)
    bracket.add_argument(
        "--field", action="append", required=True, help="give twice: first Z, then W"
    )
    _add_common(bracket, _bracket)

    curl_cmd = subs.add_parser("curl", help="curl of an inline bivector")
    curl_cmd.add_argument("--dim", type=int, required=True)
    curl_cmd.add_argument("--bivector", required=True, help="';'-separated 'i j: expr' entries")
    curl_cmd.add_argument("--volume-weight", default="1")
    _add_common(curl_cmd, _curl)

    modular = subs.add_parser("modular", help="modular vector field of an inline bivector")
    modular.add_argument("--dim", type=int, required=True)
    modular.add_argument("--bivector", required=True)
    modular.add_argument("--volume-weight", default="1")
    _add_common(modular, _modular)

    realify_cmd = subs.add_parser("realify", help="real forms of an inline field or polynomial")
    realify_cmd.add_argument("--dim", type=int, required=True)
    realify_cmd.add_argument("--field", default=None)
    realify_cmd.add_argument("--alpha", default=None, help="polynomial to split and square")
    _add_common(realify_cmd, _realify)

    integrate_cmd = subs.add_parser("integrate", help="RK4 trajectory of the realified system")
    integrate_cmd.add_argument("--dim", type=int, required=True)
    integrate_cmd.add_argument("--field", required=True)
    integrate_cmd.add_argument("--x0", default=None, help="comma-separated 2n start coordinates")
    integrate_cmd.add_argument("--seed", type=int, default=0, help="seed for a random start when --x0 is omitted")
    integrate_cmd.add_argument("--step", type=float, default=1e-3)
    integrate_cmd.add_argument("--t-end", type=float, default=1.0)
    _add_common(integrate_cmd, _integrate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on the first call, then reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "dim" in vars(args):
            _check_dimension(args.dim)
        return args.run(args)
    except (ValueError, OSError) as exc:  # ManifestError, ParseError and CliError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # an exact cross-check found two routes disagreeing
        print(f"error: internal route disagreement: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
