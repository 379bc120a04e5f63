"""The declared dimension is bounded above as well as below.

`manifest._check_dimension` is the one rule for `[dim]` and `--dim`: a
dimension above `MAX_DIMENSION` exits 2 with one stderr line from the CLI
and is a `ManifestError` at its line in a manifest, however large, so no
object is ever built in it.
"""

import contextlib
import io

import pytest

from holomult.cli import main
from holomult.manifest import MAX_DIMENSION, ManifestError, parse_manifest

ONE_SHOT = [
    ["div", "--field", "z1"],
    ["bracket", "--field", "z1", "--field", "z1"],
    ["curl", "--bivector", "1 2: z1"],
    ["modular", "--bivector", "1 2: z1"],
    ["realify", "--alpha", "1"],
    ["realify", "--field", "z1"],
    ["integrate", "--field", "z1"],
]
TOO_LARGE = [str(MAX_DIMENSION + 1), str(10**20)]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("dim", TOO_LARGE)
@pytest.mark.parametrize("args", ONE_SHOT, ids=lambda args: " ".join(args[:2]))
def test_every_dim_option_refuses_a_dimension_above_the_limit(args, dim):
    code, out, err = run([args[0], "--dim", dim, *args[1:]])
    assert code == 2
    assert err == "error: dimension exceeds the limit of 32\n"
    assert out == ""


def test_the_limit_itself_is_accepted():
    code, out, err = run(["realify", "--dim", "32", "--alpha", "1"])
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("dim", TOO_LARGE)
def test_a_manifest_refuses_it_at_its_line(dim):
    with pytest.raises(ManifestError, match="^line 3: dimension exceeds the limit of 32$") as info:
        parse_manifest(f"# header\n[dim]\n{dim}\n")
    assert info.value.line == 3


def test_check_refuses_the_manifest_with_one_line(tmp_path):
    path = tmp_path / "big.mf"
    path.write_text("[dim]\n33\n")
    code, out, err = run(["check", str(path)])
    assert code == 2
    assert err == "error: line 2: dimension exceeds the limit of 32\n"
    assert out == ""
