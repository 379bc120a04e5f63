"""Byte pins of failing manifest reports and of the one-shot subcommands.

The shipped manifests all pass, so they never show which residual a failing
task reports.  Each case below runs in process through `main(argv)`; its
stdout is compared with `tests/data/pins/<case>.<format>.txt` and its exit
code with the table.  The stored outputs were generated once and checked by
hand; to regenerate them after an intended change of output, run

    PYTHONPATH=src python tests/test_report_pins.py --write
"""

import contextlib
import io
import os
import sys

import pytest

from holomult.calculus import Multivector, VectorField
from holomult.cli import main
from holomult.manifest import _judge
from holomult.poly import CPoly

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PINS = os.path.join(DATA, "pins")

C3_BIVECTOR = "1 2: (z1)^2*z3; 1 3: z2*(z3)^2; 2 3: (z1)^3 + z2"
C4_BIVECTOR = "3 1: z1*z2 - (z4)^2; 1 4: 2*z3*z4; 2 3: z1*z3 - i*z2; 4 2: (z2)^2 + 3*z4"
C3_FIELD = "z1*z2 - i*z3; (z2)^2 - z3; z1*z3 + 2"
# the Jacobian bracket of the Casimirs z1 + z2*z3, (z4)^2 + z5 and z1*z5 + z2: Poisson and unimodular
C5_JACOBIAN = ("1 2: 2*z1*z2*z4; 1 3: -2*z1*z3*z4; 1 4: z2; 1 5: -2*z2*z4; 2 3: 2*z1*z4; "
               "2 4: -z2*z5; 2 5: 2*z2*z4*z5; 3 4: z3*z5 - 1; 3 5: -2*z3*z4*z5 + 2*z4")
# unimodular but not Poisson: the componentwise route must say so, or the routes disagree (exit 3)
C4_UNIMODULAR = "1 2: z3; 3 4: z1"

# case name -> (argv without --format, expected exit code)
CASES = {
    "check_failing_c3": (["check", os.path.join(DATA, "failing_c3.mf")], 1),
    "check_failing_c4": (["check", os.path.join(DATA, "failing_c4.mf")], 1),
    "div": (["div", "--dim", "3", "--field", C3_FIELD, "--volume-weight", "2"], 0),
    "bracket": (["bracket", "--dim", "3", "--field", C3_FIELD, "--field", "z3; z1*z2; 0"], 0),
    "curl_c3": (["curl", "--dim", "3", "--bivector", C3_BIVECTOR], 0),
    "curl_c4": (["curl", "--dim", "4", "--bivector", C4_BIVECTOR, "--volume-weight", "1 + i"], 0),
    "curl_c5_jacobian": (["curl", "--dim", "5", "--bivector", C5_JACOBIAN], 0),
    "curl_c4_unimodular": (["curl", "--dim", "4", "--bivector", C4_UNIMODULAR], 0),
    "modular_c3": (["modular", "--dim", "3", "--bivector", C3_BIVECTOR], 0),
    "modular_c4": (["modular", "--dim", "4", "--bivector", C4_BIVECTOR], 0),
    "realify_field": (["realify", "--dim", "3", "--field", C3_FIELD], 0),
    "realify_alpha": (["realify", "--dim", "2", "--alpha", "(1 + i)*z1*z2 - (z2)^3 + 3*i"], 0),
    "integrate_x0": (
        ["integrate", "--dim", "2", "--field", "i*z1; -z2 + (z1)^2",
         "--x0", "0.5,-0.25,0.125,1", "--t-end", "0.2", "--step", "0.01"],
        0,
    ),
    "integrate_seed": (
        ["integrate", "--dim", "2", "--field", "z1*z2; -z2",
         "--seed", "7", "--t-end", "0.1", "--step", "0.005"],
        0,
    ),
}

PARAMS = [(name, fmt) for name in CASES for fmt in ("text", "json")]


def _run(name, fmt):
    argv, _ = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", fmt])
    return code, out.getvalue()


def _pin_path(name, fmt):
    return os.path.join(PINS, f"{name}.{fmt}.txt")


@pytest.mark.parametrize("name,fmt", PARAMS, ids=[f"{n}-{f}" for n, f in PARAMS])
def test_output_is_byte_identical(name, fmt):
    with open(_pin_path(name, fmt), encoding="utf-8") as handle:
        expected = handle.read()
    code, output = _run(name, fmt)
    assert output == expected
    assert code == CASES[name][1]


def test_failing_residual_is_named_by_its_lowest_index():
    z1, z2 = CPoly.var(3, 1), CPoly.var(3, 2)
    zero = CPoly.zero(3)
    # built so that the component at index 3 is stored before the one at 2
    field = VectorField(3, [zero, zero, z1]) + VectorField(3, [zero, z2, zero])
    assert list(field.comps) == [(3,), (2,)]
    assert _judge(field) == ("fail", "z2", {})
    w1, w2 = CPoly.var(4, 1), CPoly.var(4, 2)
    trivector = Multivector(4, 3, {(2, 3, 4): w1, (1, 2, 4): w2})
    assert _judge(trivector) == ("fail", "z2", {})
    assert _judge(VectorField.zero(3)) == ("pass", "0", {})


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_report_pins.py --write")
    os.makedirs(PINS, exist_ok=True)
    for name, fmt in PARAMS:
        code, output = _run(name, fmt)
        if code != CASES[name][1]:
            sys.exit(f"{name} ({fmt}) exited {code}, expected {CASES[name][1]}")
        with open(_pin_path(name, fmt), "w", encoding="utf-8") as handle:
            handle.write(output)
