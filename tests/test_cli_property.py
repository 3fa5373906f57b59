"""Property test of the command line on well-formed and malformed input.

Every command either answers (exit 0), rejects its input (exit 1) or
stops at the codeword budget (exit 2); none may end in an internal
error or a traceback.
"""

from __future__ import annotations

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from zetacode import cli

# prime powers up to the field cap, then non-prime-powers and orders past it
GOOD_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
BAD_QS = (-4, 0, 1, 6, 10, 12, 1031, 2048)
good_qs = st.sampled_from(GOOD_QS)
qs = st.one_of(good_qs, st.sampled_from(BAD_QS))

ints = st.integers(-3, 12)
rationals = st.one_of(
    ints.map(str),
    st.sampled_from(["1/3", "-2/5", "0/7", "1/0", "x", "1.5", "2/", "--1"]),
)
int_lists = st.one_of(
    st.lists(ints, max_size=6).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", " ", ",", "1,,2", "a,1", "0,1,0"]),
)


@st.composite
def matrix_text(draw, valid: bool) -> str:
    """A generator-matrix file: in range (the rows may still be dependent),
    or ragged, out of range, non-numeric, short or with a bad header."""
    if valid:
        q, n = draw(good_qs), draw(st.integers(1, 8))
        k = draw(st.integers(1, min(n, 5)))
        row = st.lists(st.integers(0, q - 1).map(str), min_size=n, max_size=n)
        rows = draw(st.lists(row, min_size=k, max_size=k))
    else:
        q, n, k = draw(qs), draw(st.integers(-1, 8)), draw(st.integers(-1, 5))
        top = max(q, 2) + 2
        rows = draw(st.lists(st.lists(st.integers(-1, top).map(str), max_size=9), max_size=6))
        if draw(st.booleans()):
            rows.append(["x"] * max(n, 1))
    header = f"{q} {n} {k}"
    if not valid:
        header = draw(st.sampled_from([header, f"{q} {n}", "", f"{header} 1"]))
    return "\n".join([header] + [" ".join(r) for r in rows]) + "\n"


@st.composite
def enumerator_text(draw, valid: bool) -> str:
    n = draw(st.integers(0 if valid else -1, 12))
    if valid:
        coeffs = [1] + draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
        return " ".join(map(str, [n] + coeffs))
    count = n + 1 if draw(st.booleans()) else draw(st.integers(0, 14))
    return " ".join([str(n)] + draw(st.lists(rationals, min_size=count, max_size=count)))


@st.composite
def curve_text(draw, valid: bool) -> str:
    """One line "q a1 a2 a3 a4 a6": in range (possibly singular), or with a
    bad q, out-of-range indices or the wrong number of fields."""
    if valid:
        q = draw(good_qs)
        coeffs = draw(st.lists(st.integers(0, q - 1), min_size=5, max_size=5))
    else:
        q = draw(qs)
        coeffs = draw(st.lists(st.integers(-1, max(min(q, 27), 1)), min_size=4, max_size=6))
    if draw(st.integers(0, 4)) == 0:
        coeffs = [0] * 5  # y^2 = x^3 is singular in every characteristic
    return " ".join(map(str, [q] + coeffs)) + "\n"


@st.composite
def invocations(draw):
    """(argv, file text or None) for one of the nine commands, with
    well-formed arguments or malformed ones."""
    command = draw(st.sampled_from(
        ["wdist", "dual", "zeta", "rh", "classify", "mds", "grs", "elliptic", "curve-zeta"]
    ))
    valid = draw(st.booleans())
    q = draw(good_qs if valid else qs)
    small = st.integers(1, q - 1) if valid else ints
    fmt = ["--format", draw(st.sampled_from(["json", "text"]))]
    if command in ("wdist", "dual", "zeta"):
        return [command, "FILE"] + fmt, draw(matrix_text(valid))
    if command == "classify":
        return [command, "FILE", str(q)] + fmt, draw(enumerator_text(valid))
    if command == "elliptic":
        return [command, "FILE", str(draw(small))] + fmt, draw(curve_text(valid))
    if command == "rh":
        coeffs = draw(st.lists(ints.map(str) if valid else rationals, min_size=1, max_size=7))
        return [command, "--q", str(q)] + fmt + ["--"] + coeffs, None
    if command == "mds":
        n = draw(st.integers(1, 40) if valid else st.integers(-2, 40))
        d = draw(st.integers(1, n + 1) if valid else st.integers(-2, 40))
        return [command, str(n), str(d), str(q)] + fmt, None
    if command == "grs":
        argv = [command, "--q", str(q), "--k", str(draw(small))] + fmt
        if not valid:
            for flag, values in (("--n", ints.map(str)), ("--alphas", int_lists),
                                 ("--multipliers", int_lists)):
                if draw(st.booleans()):
                    argv.append(f"{flag}={draw(values)}")
        elif draw(st.booleans()):
            alphas = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True))
            argv.append("--alphas=" + ",".join(map(str, alphas)))
        return argv, None
    if valid:
        genus = draw(st.integers(0, 2))
        counts = draw(st.lists(st.integers(0, 2 * q + 2), min_size=genus, max_size=genus))
    else:
        genus = draw(st.integers(-1, 3))
        counts = draw(st.lists(st.integers(-5, 60), max_size=4))
    argv = [command, "--q", str(q), "--genus", str(genus)] + fmt + ["--"]
    return argv + list(map(str, counts)), None


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_property") / "input.txt"


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_command_exits_0_1_or_2_without_internal_error(input_path, case):
    argv, text = case
    if text is not None:
        input_path.write_text(text)
        argv = [str(input_path) if a == "FILE" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([argv[0], "--budget", "4096"] + argv[1:])
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2), (argv, text, err.getvalue())
    assert "internal error" not in err.getvalue(), (argv, text, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, text, err.getvalue())
