"""A disagreement between the exact routes of a cross-check exits with code 3.

Exit codes 0, 1 and 2 mean pass, mathematical fail and bad input; a route
disagreement is a defect in holomult, so it gets its own code and a
one-line message instead of a traceback.
"""

import holomult.poisson
from holomult.calculus import VectorField
from holomult.cli import main

MANIFEST = """[dim]
3
[poly]
alpha = z1
[bivector]
P 1 2 = z3*z1
[task]
bivector_lm alpha P
"""


def test_consistent_routes_give_a_verdict(tmp_path, capsys):
    path = tmp_path / "lm.mf"
    path.write_text(MANIFEST, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == ""


def test_route_disagreement_exits_three(tmp_path, capsys, monkeypatch):
    original = holomult.poisson.hamiltonian_field

    def skewed(f, p):  # the weighted-modular route now sees a shifted field
        return original(f, p) + VectorField.coordinate(p.n, 1)

    monkeypatch.setattr(holomult.poisson, "hamiltonian_field", skewed)
    path = tmp_path / "lm.mf"
    path.write_text(MANIFEST, encoding="utf-8")
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: internal route disagreement: weighted-modular route disagrees\n"
    assert "Traceback" not in captured.err
