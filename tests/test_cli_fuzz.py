"""In-process fuzz of the command line: every subcommand, and `check` on a
written manifest, keeps the exit-code contract.

Each input runs through `main(argv)` in this process.  The exit code is 0, 1,
2 or 3 (argparse's own `SystemExit` counts as 2), stderr holds no traceback,
and no other exception escapes.  Inputs stay small: at most three
dimensions, exponents of at most two digits, expressions whose degree and
term count are bounded as they are drawn, and `integrate` runs at most 100
steps.  Most inputs are well formed, so the checks themselves run; now and
then a piece is malformed.  Fixed examples pin inputs that once escaped the
contract.
"""

import contextlib
import io
import re
from itertools import combinations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from holomult.cli import main

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

MAX_DEGREE = 12
MAX_TERMS = 40


def mostly(common, rare, weight=8):
    """One of `common`, or now and then one of `rare`."""
    return st.sampled_from(list(common) * weight + list(rare))


def atoms(dim):
    """(text, degree, terms) of the smallest pieces."""
    variables = [(f"z{k}", 1, 1) for k in range(1, dim + 1)]
    constants = [("i", 0, 1), ("0", 0, 1), ("1", 0, 1), ("2", 0, 1), ("1/2", 0, 1), ("7/3", 0, 1)]
    return mostly(variables * 2 + constants, [("z4", 1, 1), ("z0", 1, 1), ("1/0", 0, 1)], weight=20)


@st.composite
def sums(draw, pieces, max_terms=3):
    """A signed sum of products of at most two pieces, with bounds on its degree and terms."""
    out, deg, count = [], 0, 0
    for k in range(draw(st.integers(1, max_terms))):
        chosen = [draw(pieces) for _ in range(draw(st.integers(1, 2)))]
        sign = draw(st.sampled_from(["-", "+"] if k else ["", "-"]))
        out.append(f"{sign} {'*'.join(t for t, _, _ in chosen)}".strip())
        deg = max(deg, sum(d for _, d, _ in chosen))
        product = 1
        for _, _, terms in chosen:
            product *= terms
        count += product
    return " ".join(out), deg, count


@st.composite
def factors(draw, dim):
    """An atom, an atom to a power of at most two digits, or a group to a power of at most 2."""
    if draw(st.booleans()):
        text, deg, terms = draw(atoms(dim))
        if draw(st.booleans()):
            e = draw(st.integers(0, MAX_DEGREE))
            text, deg = f"{text}^{e}", deg * e
        return text, deg, terms
    text, deg, terms = draw(sums(atoms(dim)))
    e = draw(st.integers(0, 2))
    return f"({text})^{e}", deg * e, terms ** e


NOISE = [" ", "\t", ".", "a", "@", "²", ";", ":", ",", "(", ")", "+", "-", "*", "/", "z", "i"]
GROUP_EXPONENT = re.compile(r"\)\s*\^\s*(\d+)")
ANY_EXPONENT = re.compile(r"\^\s*(\d+)")


def _still_bounded(text):
    """After an edit, no group power above 2 and no power above MAX_DEGREE."""
    return all(len(e) <= 2 and int(e) <= 2 for e in GROUP_EXPONENT.findall(text)) and all(
        len(e) <= 2 and int(e) <= MAX_DEGREE for e in ANY_EXPONENT.findall(text)
    )


@st.composite
def expressions(draw, dim):
    """A bounded expression, now and then with one character inserted, replaced or deleted."""
    text, deg, terms = draw(sums(factors(dim)))
    if deg > MAX_DEGREE or terms > MAX_TERMS:
        text = draw(atoms(dim))[0]
    edit = draw(mostly(["none"], ["insert", "replace", "delete"], weight=40))
    if edit != "none":
        at = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from(NOISE))
        edited = {
            "insert": text[:at] + char + text[at:],
            "replace": text[:at] + char + text[at + 1:],
            "delete": text[:at] + text[at + 1:],
        }[edit]
        if _still_bounded(edited):
            text = edited
    return text


dims = mostly([1, 2, 3], [0, -1])
constants = mostly(["1", "2", "-1/3", "i", "3 + i"], ["0", "z1", "1/0", "", "²", "1.5"])
# a perfect square each, so that a diagonal metric has a square-root volume
squares = mostly(["1", "4", "-1", "9/4", "2*i"], ["3", "0", "z1"])


@st.composite
def fields(draw, dim):
    """`dim` components, now and then one too many or too few."""
    count = max(dim, 0) + draw(mostly([0], [1, -1], weight=12))
    return " ; ".join(draw(expressions(dim)) for _ in range(max(count, 1)))


@st.composite
def bivectors(draw, dim):
    """Entries 'i j: expr', now and then with an index out of range, equal or repeated."""
    index_pairs = list(combinations(range(1, dim + 1), 2))
    pairs = draw(st.lists(mostly(index_pairs, [(0, 1), (1, 1), (2, 4), (2, 1)], weight=20),
                          max_size=3 if index_pairs else 1))
    return " ; ".join(f"{i} {j}: {draw(expressions(dim))}" for i, j in pairs)


def _run(argv):
    """Exit code and stderr of main(argv); argparse exits through SystemExit (2 on bad usage)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _assert_contract(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code in (2, 3):
        assert err.startswith(("error: ", "usage: ")), (argv, err)


@st.composite
def one_shot_argv(draw):
    command = draw(st.sampled_from(["div", "bracket", "curl", "modular", "realify", "integrate"]))
    dim = draw(dims)
    argv = [command, "--dim", str(dim), "--format", draw(st.sampled_from(["text", "json"]))]
    if command == "div":
        argv += ["--field", draw(fields(dim)), "--volume-weight", draw(constants)]
    elif command == "bracket":
        for _ in range(draw(mostly([2], [1, 3]))):
            argv += ["--field", draw(fields(dim))]
    elif command in ("curl", "modular"):
        argv += ["--bivector", draw(bivectors(dim)), "--volume-weight", draw(constants)]
    elif command == "realify":
        choice = draw(mostly(["field", "alpha"], ["both", "neither"], weight=4))
        if choice in ("field", "both"):
            argv += ["--field", draw(fields(dim))]
        if choice in ("alpha", "both"):
            argv += ["--alpha", draw(expressions(dim))]
    else:
        argv += ["--field", draw(fields(dim))]
        # at most 100 steps: |t_end| <= 1 and |step| >= 0.01, or a value that is refused
        argv += ["--step", draw(mostly(["0.01", "0.1", "0.5"], ["-0.1", "0", "inf", "nan"], weight=3))]
        argv += ["--t-end", draw(mostly(["0.3", "1"], ["0", "-1", "inf", "nan"], weight=3))]
        start = draw(mostly(["seed", "x0"], ["short", "junk"], weight=3))
        if start == "seed":
            argv += ["--seed", str(draw(st.integers(0, 2 ** 64 - 1)))]
        elif start == "x0":
            argv += ["--x0", ",".join(["0.1"] * (2 * max(dim, 0)))]
        else:
            argv += ["--x0", "0.5" if start == "short" else "a,b"]
    return argv


@SETTINGS
@given(one_shot_argv())
@example(["integrate", "--dim", "1", "--field", "z1", "--t-end", "inf"])
@example(["integrate", "--dim", "1", "--field", "z1", "--t-end", "nan"])
@example(["integrate", "--dim", "1", "--field", "10^400*z1"])
@example(["div", "--dim", "1", "--field", "(" * 101 + "z1" + ")" * 101])
@example(["div", "--dim", "1", "--field", "z1^1001"])
@example(["div", "--dim", "1", "--field", "9" * 5000 + "*z1"])
@example(["div", "--dim", "1", "--field", "z1", "--volume-weight", "z1"])
@example(["div", "--dim", "1", "--field", "²"])
@example(["div", "--dim", "1", "--field", "z1 + "])
def test_one_shot_subcommands_keep_the_contract(argv):
    _assert_contract(argv)


TASK_LINES = [
    "first_integral f Z", "last_multiplier f Z", "inverse_multiplier g Z",
    "darboux_search Z f g", "jacobi P", "modular_zero P", "self_multiplier f P",
    "bivector_lm f P", "casimir g P", "unimodular P f", "exactness P",
    "hamiltonian_lm f g P", "gradient_lm f g G", "divergence_zero Z",
]


@st.composite
def manifests(draw):
    """A manifest of every section, its tasks drawn from every task kind."""
    dim = draw(mostly([2, 3], [1]))  # no bivector is named on C^1
    lines = ["[dim]", draw(mostly([str(dim)], ["0", "x"], weight=30))]
    if draw(st.booleans()):
        lines += ["[volume]", draw(constants)]
    lines += ["[poly]", f"f = {draw(expressions(dim))}", f"g = {draw(expressions(dim))}"]
    lines += ["[field]", f"Z = {draw(fields(dim))}", "[bivector]"]
    lines += [f"P {i} {j} = {draw(expressions(dim))}" for i, j in combinations(range(1, dim + 1), 2)]
    diagonal = [draw(squares) for _ in range(dim)]
    rows = (" , ".join(diagonal[i] if i == j else "0" for j in range(dim)) for i in range(dim))
    lines += ["[metric]", "G = " + " ; ".join(rows), "[task]"]
    lines += draw(st.lists(mostly(TASK_LINES, ["jacobi missing", "frobnicate P", "jacobi P P"], 2),
                           min_size=1, max_size=6))
    return "\n".join(lines) + "\n"


@SETTINGS
@given(manifests(), st.sampled_from(["text", "json"]))
@example("[dim]\n1\n[poly]\na = ²\n[task]\ndivergence_zero a\n", "text")
@example("[dim]\n2\n[poly]\nzero = 0\n[bivector]\nP 1 2 = z1\n[task]\nbivector_lm zero P\n", "json")
def test_check_on_a_written_manifest_keeps_the_contract(tmp_path, text, fmt):
    path = tmp_path / "fuzz.mf"
    path.write_text(text, encoding="utf-8")
    _assert_contract(["check", str(path), "--format", fmt])
