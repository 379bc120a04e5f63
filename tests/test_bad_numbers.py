"""Non-finite float flags and variables in constant slots are bad input (exit 2)."""

import math

import pytest

from holomult.cli import main
from holomult.manifest import ManifestError, parse_manifest
from holomult.numcheck import integrate
from holomult.realify import RealVectorField
from holomult.poly import RPoly


@pytest.mark.parametrize("flag, name", [("--t-end", "t_end"), ("--step", "step")])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_rk4_flags_exit_two(flag, name, value, capsys):
    code = main(["integrate", "--dim", "1", "--field", "z1", f"{flag}={value}"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{name} must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("t_end, step", [(math.inf, 0.1), (1.0, math.nan), (-math.inf, 0.1)])
def test_integrate_rejects_non_finite_arguments(t_end, step):
    field = RealVectorField(2, [RPoly.var(2, 2), -RPoly.var(2, 1)])
    with pytest.raises(ValueError, match="must be finite"):
        integrate(field, [1.0, 0.0], t_end, step)


def test_volume_weight_flag_must_be_constant(capsys):
    assert main(["div", "--dim", "1", "--field", "z1", "--volume-weight", "z1"]) == 2
    assert "volume weight must be a constant, got 'z1'" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("[dim]\n2\n[volume]\nz1\n", "line 4: volume weight must be a constant, got 'z1'"),
    ("[dim]\n2\n[metric]\ng = 1, 0; 0, z1\n", "line 4: metric entry must be a constant, got 'z1'"),
])
def test_manifest_constant_slots_name_the_slot(text, message, tmp_path, capsys):
    with pytest.raises(ManifestError) as err:
        parse_manifest(text)
    assert str(err.value) == message
    path = tmp_path / "bad.mf"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    assert message in capsys.readouterr().err
