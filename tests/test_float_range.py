"""The float evaluator refuses what a float64 cannot represent.

`poly.float_evaluator` turns each coefficient into a float and each exponent
into a float64 exponent matrix.  A coefficient whose numerator / denominator
overflows a float, or an exponent above 2^53 (past which a float64 loses the
exponent's parity), is refused with a ValueError that names the limit, in
both rings; the CLI reports it as malformed input, exit 2, with one
`error:` line.  Exponents up to 2^53 and coefficients up to the largest
float still evaluate.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from holomult.calculus import RealVectorField
from holomult.cli import main
from holomult.numcheck import first_integral_drift, integrate, residual_sample
from holomult.poly import CPoly, RPoly, float_evaluator
from holomult.scalars import GaussianRational

EXPONENT_LIMIT = "float evaluation needs exponents of at most 2\\^53 = 9007199254740992"
COEFFICIENT_LIMIT = "float evaluation needs coefficients of at most 1.7976931348623157e\\+308"
HUGE = 10**400


@pytest.mark.parametrize("ring", [RPoly, CPoly])
@pytest.mark.parametrize("exponent", [2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1])
def test_an_exponent_above_two_to_the_53_is_refused(ring, exponent):
    p = ring.var(2, 2) ** exponent
    with pytest.raises(ValueError, match=EXPONENT_LIMIT):
        p.evaluate([0.5, -1.0])
    with pytest.raises(ValueError, match=EXPONENT_LIMIT):  # in any polynomial of the batch
        float_evaluator([ring.var(2, 1), p + ring.var(2, 1)])


@pytest.mark.parametrize("ring", [RPoly, CPoly])
def test_a_large_degree_of_small_exponents_is_kept(ring):
    # the degree passes 2^53 but no exponent does
    p = ring.var(2, 1) ** 2**52 * ring.var(2, 2) ** (2**52 + 1)
    assert p.evaluate([1.0, 1.0]) == 1.0


def test_real_exponents_up_to_two_to_the_53_keep_their_parity():
    x = RPoly.var(1, 1)
    assert (x ** (2**53)).evaluate([-1.0]) == 1.0
    assert (x ** (2**53 - 1)).evaluate([-1.0]) == -1.0
    assert (x ** (2**53)).evaluate([0.5]) == 0.0


@pytest.mark.parametrize("coeff", [HUGE, -HUGE, Fraction(HUGE, 3), Fraction(2**1024, 1)])
def test_a_real_coefficient_past_the_float_range_is_refused(coeff):
    p = RPoly.const(2, coeff) * RPoly.var(2, 1) + 1
    with pytest.raises(ValueError, match=COEFFICIENT_LIMIT):
        p.evaluate([1.0, 1.0])
    with pytest.raises(ValueError, match=COEFFICIENT_LIMIT):
        CPoly.const(2, coeff).evaluate([1.0, 1.0])


@pytest.mark.parametrize("coeff", [GaussianRational(1, HUGE), GaussianRational(Fraction(-HUGE, 7), 1)])
def test_a_complex_coefficient_past_the_float_range_is_refused(coeff):
    with pytest.raises(ValueError, match=COEFFICIENT_LIMIT):
        (CPoly.const(1, coeff) * CPoly.var(1, 1)).evaluate([1.0])


def test_coefficients_inside_the_float_range_still_evaluate():
    top = int(sys.float_info.max)
    assert RPoly.const(1, top).evaluate([0.0]) == sys.float_info.max
    assert CPoly.const(1, GaussianRational(0, -top)).evaluate([0.0]) == -1j * sys.float_info.max
    assert RPoly.const(1, Fraction(HUGE, HUGE // 2 + 1)).evaluate([0.0]) == 2.0
    assert RPoly.const(1, Fraction(1, HUGE)).evaluate([0.0]) == 0.0  # underflow rounds to 0


def test_the_float_layer_passes_the_refusal_on():
    x, y = RPoly.var(2, 1), RPoly.var(2, 2)
    big = RPoly.const(2, HUGE) * x
    with pytest.raises(ValueError, match=COEFFICIENT_LIMIT):
        integrate(RealVectorField(2, [big, y]), [0.5, 0.5], t_end=0.1, step=0.01)
    traj = integrate(RealVectorField(2, [-y, x]), [1.0, 0.0], t_end=0.1, step=0.01)
    with pytest.raises(ValueError, match=COEFFICIENT_LIMIT):
        first_integral_drift(big, traj)
    with pytest.raises(ValueError, match=EXPONENT_LIMIT):
        residual_sample(CPoly.var(1, 1) ** 2**60, 4, seed=1)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("field", ["10^400*z1", "z1 ; 10^400*i*z2", "1/3*z1 - (10^200)^2*z1^2"])
def test_the_cli_exits_two_with_one_error_line(field):
    dim = field.count(";") + 1
    code, out, err = run_cli(["integrate", "--dim", str(dim), "--field", field])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: float evaluation needs coefficients of at most 1.7976931348623157e+308")


def test_the_cli_integrates_below_the_limit():
    code, out, err = run_cli(["integrate", "--dim", "1", "--field", "10^300*z1", "--x0", "0,0",
                              "--t-end", "0.01", "--step", "0.01", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["state_final"] == [0.0, 0.0]


def test_the_compiled_exponents_are_float64():
    run = float_evaluator([RPoly.var(2, 1) ** 3, RPoly.var(2, 2)])
    exps, coeffs = run.matrices
    assert exps.dtype == np.float64
    assert exps.tolist() == [[3.0, 0.0], [0.0, 1.0]]
    assert coeffs.tolist() == [[1.0, 0.0], [0.0, 1.0]]
