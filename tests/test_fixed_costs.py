"""Per-process costs: `import holomult` leaves numpy unloaded, and `cli.main`
builds its argument parser once and reuses it without carrying state from
one call to the next."""

import os
import re
import subprocess
import sys

from holomult import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "manifests", "rank2_linear.mf")


def test_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = "import sys, holomult, holomult.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "False\n", result.stderr


# Alternating subcommands: each bad input is followed by a success, and
# `bracket` (whose --field appends) runs twice in a row.
SEQUENCE = [
    ["check", MANIFEST, "--timings"],
    ["div", "--dim", "2", "--field", "z1*z2 ; z2", "--volume-weight", "2"],
    ["realify", "--dim", "1", "--field", "i*z1", "--format", "json"],
    ["div", "--dim", "1", "--field", "z2"],
    ["div", "--dim", "1", "--field", "(z1)^3", "--format", "json"],
    ["bracket", "--dim", "1", "--field", "z1", "--field", "(z1)^2"],
    ["bracket", "--dim", "2", "--field", "z2; z1", "--field", "z1*z2; 1"],
    ["integrate", "--dim", "1", "--field", "i*z1", "--x0", "1,0", "--step", "0.01", "--t-end", "0.1"],
    ["bracket", "--dim", "1"],
    ["realify", "--dim", "1", "--alpha", "z1 - i"],
    ["check", MANIFEST, "--format", "json", "--out", "{out}"],
    ["integrate", "--dim", "1", "--field", "z1", "--seed", "7", "--t-end", "0.05", "--format", "json"],
    ["div", "--dim", "1", "--field", "z1", "--out", "{out}"],
    ["check", MANIFEST],
]


def _run(argv, out_path, capsys):
    """Exit code, stdout, stderr and the --out file's text of one main call."""
    try:
        code = cli.main([arg.format(out=out_path) for arg in argv])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    written = None
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as handle:
            written = handle.read()
        os.remove(out_path)
    out = re.sub(r"\[[0-9.]+ ms\]", "[ms]", captured.out)  # timings differ from run to run
    return code, out, captured.err, written


def test_one_parser_serves_every_call_as_a_fresh_one_does(tmp_path, capsys):
    out_path = str(tmp_path / "out.txt")
    fresh = []
    for argv in SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(_run(argv, out_path, capsys))

    cli._parser.cache_clear()
    reused = [_run(argv, out_path, capsys) for argv in SEQUENCE]
    assert cli._parser.cache_info().misses == 1

    assert reused == fresh
    codes = [outcome[0] for outcome in fresh]
    assert codes == [0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0]
    assert "[ms]" in fresh[0][1] and "[ms]" not in fresh[13][1]
    assert fresh[6][1] == "(z1)^2 + (z2)^2 - 1\n-z1*z2\n"
    assert fresh[10][1] == "" and fresh[10][3].startswith("{") and fresh[12][3] == "1\n"


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()
