"""The JSON reports of the shipped manifests stay byte-identical.

Each `manifests/*.mf` is checked in process through `main(argv)` and its
stdout compared byte for byte with the stored report in
`perfbench/expected/<stem>.json` (timings are `null` without `--timings`),
so every test run guards the reports, not only the benchmark.
"""

import glob
import os

import pytest

from holomult.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFESTS = sorted(glob.glob(os.path.join(ROOT, "manifests", "*.mf")))


def test_every_manifest_has_a_stored_report():
    assert MANIFESTS
    for path in MANIFESTS:
        stem = os.path.splitext(os.path.basename(path))[0]
        assert os.path.exists(os.path.join(ROOT, "perfbench", "expected", f"{stem}.json"))


@pytest.mark.parametrize("path", MANIFESTS, ids=lambda p: os.path.basename(p))
def test_json_report_is_byte_identical(path, capsys):
    stem = os.path.splitext(os.path.basename(path))[0]
    with open(os.path.join(ROOT, "perfbench", "expected", f"{stem}.json"), encoding="utf-8") as handle:
        expected = handle.read()
    code = main(["check", path, "--format", "json"])
    assert capsys.readouterr().out == expected
    assert code == 0
