"""Dimensions and coordinate indices are checked where they enter.

The manifest's `[dim]` and every subcommand's `--dim` share one rule: a
dimension below 1 exits 2 with one stderr line.  A coordinate field's index
is checked like a variable index, so a negative one no longer wraps around.
"""

import contextlib
import io

import pytest

from holomult.calculus import RealVectorField, VectorField
from holomult.cli import main
from holomult.manifest import ManifestError, parse_manifest
from holomult.poly import CPoly, RPoly

ONE_SHOT = [
    ["div", "--field", "z1"],
    ["bracket", "--field", "z1", "--field", "z1"],
    ["curl", "--bivector", "1 2: z1"],
    ["modular", "--bivector", "1 2: z1"],
    ["realify", "--alpha", "1"],
    ["realify", "--field", "z1"],
    ["integrate", "--field", "z1"],
]


@pytest.mark.parametrize("dim", ["0", "-1", "-2"])
@pytest.mark.parametrize("args", ONE_SHOT, ids=lambda args: " ".join(args[:2]))
def test_every_dim_option_refuses_a_nonpositive_dimension(args, dim):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([args[0], "--dim", dim, *args[1:]])
    assert code == 2
    assert err.getvalue() == "error: dimension must be positive\n"
    assert out.getvalue() == ""


def test_the_manifest_states_the_same_rule():
    with pytest.raises(ManifestError, match="dimension must be positive") as info:
        parse_manifest("[dim]\n0\n")
    assert info.value.line == 2


@pytest.mark.parametrize("cls, ring", [(VectorField, CPoly), (RealVectorField, RPoly)])
def test_coordinate_field_index_is_checked(cls, ring):
    assert cls.coordinate(3, 3).components == [ring.zero(3), ring.zero(3), ring.const(3, 1)]
    for index in (0, -1, 4):
        with pytest.raises(IndexError, match=rf"^coordinate index {index} out of range 1\.\.3$"):
            cls.coordinate(3, index)
