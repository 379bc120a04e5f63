"""Input errors keep the exit-code contract and surface before any task runs."""

import pytest

import holomult.poisson
from holomult.cli import main
from holomult.manifest import ManifestError, parse_manifest, run_tasks
from holomult.parser import MAX_DEPTH


def nested(depth):
    return "(" * depth + "z1" + ")" * depth


def test_nesting_at_the_limit_parses(capsys):
    assert MAX_DEPTH == 100
    assert main(["div", "--dim", "1", "--field", nested(100)]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("depth", [101, 10_000])
def test_nesting_past_the_limit_is_bad_input(depth, capsys):
    assert main(["div", "--dim", "1", "--field", nested(depth)]) == 2
    err = capsys.readouterr().err
    assert "position 100" in err
    assert "Traceback" not in err


def test_second_volume_line_rejected():
    with pytest.raises(ManifestError) as err:
        parse_manifest("[dim]\n2\n[volume]\n2\n[volume]\n3\n")
    assert err.value.line == 6
    assert "volume" in str(err.value)


def test_metric_size_must_match_dimension():
    with pytest.raises(ManifestError) as err:
        parse_manifest("[dim]\n2\n[metric]\ng = 1\n")
    assert err.value.line == 4
    assert "metric" in str(err.value)


def test_bivector_names_must_be_identifiers():
    with pytest.raises(ManifestError) as err:
        parse_manifest("[dim]\n2\n[bivector]\n1x 1 2 = 1\n")
    assert err.value.line == 4
    assert "'1x'" in str(err.value)


def test_manifest_input_errors_exit_two(tmp_path, capsys):
    path = tmp_path / "metric.mf"
    path.write_text("[dim]\n2\n[poly]\nf = z1\n[metric]\ng = 1\n[task]\ngradient_lm f f g\n")
    assert main(["check", str(path)]) == 2
    assert "line 6" in capsys.readouterr().err


def test_every_task_is_bound_before_any_runs(monkeypatch):
    calls = []
    original = holomult.poisson.jacobiator

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(holomult.poisson, "jacobiator", counting)
    manifest = parse_manifest("[dim]\n3\n[bivector]\nP 1 2 = z3\n[task]\njacobi P\njacobi missing\n")
    with pytest.raises(ManifestError) as err:
        run_tasks(manifest)
    assert "missing" in str(err.value)
    assert err.value.line > 0
    assert calls == []
    # the same manifest without the bad task runs through the patched function
    run_tasks(parse_manifest("[dim]\n3\n[bivector]\nP 1 2 = z3\n[task]\njacobi P\n"))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "task, message",
    [
        ("darboux_search Z", "takes at least 2 arguments"),
        ("jacobi P P", "takes 1 arguments"),
        ("jacobi f", "undefined bivector 'f'"),
        ("gradient_lm f f P", "undefined metric 'P'"),
        ("frobnicate P", "unknown task kind"),
    ],
)
def test_binding_errors_name_the_task_line(task, message):
    text = "[dim]\n2\n[poly]\nf = z1\n[field]\nZ = z1 ; z2\n[bivector]\nP 1 2 = 1\n[task]\n"
    manifest = parse_manifest(text + "jacobi P\n" + task + "\n")
    with pytest.raises(ManifestError) as err:
        run_tasks(manifest)
    assert message in str(err.value)
    assert err.value.line == 11


def test_value_error_inside_a_task_carries_its_line():
    manifest = parse_manifest(
        "[dim]\n2\n[poly]\nzero = 0\n[bivector]\nP 1 2 = z1\n[task]\nbivector_lm zero P\n"
    )
    with pytest.raises(ManifestError) as err:
        run_tasks(manifest)
    assert err.value.line == 8
    assert "nonzero" in str(err.value)
