"""Property tests of the command line on well-formed and malformed input,
and of its JSON writer and matrix parser.

Every command either answers (exit 0), rejects its input (exit 1) or
stops at the codeword budget (exit 2); none may end in an internal
error or a traceback.  The JSON writer gives the bytes of
``json.dumps(value, indent=2)`` on every value a report may hold, and the
matrix parser gives the rows, or the error, of a parser that reads one
token at a time.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from zetacode import cli
from zetacode.gf import GF
from zetacode.linear_code import LinearCode, Matrix, parse_matrix_text

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


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
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


# quotes, backslashes, control characters, non-ASCII and astral characters
awkward_text = st.text(st.sampled_from(['a', '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                                        "\u00e9", "\u2028", "\u2603", "\U0001f600", " "]))
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**80), 10**80),
    st.text(),
    awkward_text,
)
# ints around the writer's table of small ones, with negatives and big ints
table_ints = st.one_of(
    st.integers(0, 1023),
    st.sampled_from([-1, 1023, 1024, 10**6, -(10**30), 2**64]),
    st.integers(),
)
# dict keys the writer puts into a format string, some with its own marks
record_keys = st.lists(
    st.one_of(st.sampled_from(["re", "im", "%", "%s", "{", "}", "{0}", '"', "\\", "\u00e9", ""]),
              awkward_text),
    min_size=1, max_size=3, unique=True,
)


@st.composite
def records(draw, values, min_size=1):
    """A list of dicts with one key order throughout, such as an RH block's
    roots, and values from ``values``."""
    keys = draw(record_keys)
    rows = draw(st.lists(st.lists(values, min_size=len(keys), max_size=len(keys)),
                         min_size=min_size, max_size=min_size + 8))
    return [dict(zip(keys, row)) for row in rows]


json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), awkward_text), inner, max_size=5),
        # one scalar type throughout, or ints with bools mixed in
        st.lists(st.integers(), max_size=8),
        st.lists(table_ints, max_size=8),
        st.lists(awkward_text, max_size=8),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=8),
        st.lists(st.one_of(table_ints, st.booleans()), min_size=1, max_size=8),
        st.lists(st.booleans(), max_size=4),
        st.lists(st.none(), max_size=3),
        # same-keyed dicts, short and past cli._FEW_RECORDS: str values
        # only, or of mixed types
        records(st.one_of(st.text(max_size=4), awkward_text)),
        records(st.one_of(st.text(max_size=4), awkward_text), min_size=cli._FEW_RECORDS),
        records(st.one_of(awkward_text, inner), min_size=cli._FEW_RECORDS),
        # str-valued dicts whose keys differ, in set or in order
        st.lists(st.dictionaries(st.sampled_from(["re", "im", "%"]), st.text(max_size=2),
                                 min_size=1, max_size=3), min_size=cli._FEW_RECORDS, max_size=14),
    ),
    max_leaves=40,
)


@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def _parse_by_tokens(text: str) -> LinearCode:
    """The matrix parser one token at a time, as it was before the whole
    body was converted at once: the reference for every answer and error."""
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise ValueError("line 1: expected header 'q n k'")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"line 1: expected 3 header fields 'q n k', found {len(head)}")
    try:
        q, n, k = (int(t) for t in head)
    except ValueError:
        raise ValueError(f"line 1: non-integer header field in {head!r}") from None
    try:
        spec = GF(q)
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None
    if n < 1 or k < 1:
        raise ValueError(f"line 1: need n >= 1 and k >= 1, got n={n} k={k}")
    rows = []
    for r in range(k):
        ln = r + 2
        if ln - 1 >= len(lines):
            raise ValueError(f"line {ln}: missing generator row ({k} expected)")
        toks = lines[ln - 1].split()
        if len(toks) != n:
            raise ValueError(f"line {ln}: expected {n} entries, found {len(toks)}")
        row = []
        for col, tok in enumerate(toks, start=1):
            try:
                v = int(tok)
            except ValueError:
                raise ValueError(f"line {ln}, column {col}: not an integer: {tok!r}") from None
            if not 0 <= v < q:
                raise ValueError(f"line {ln}, column {col}: index {v} out of range for GF({q})")
            row.append(v)
        rows.append(row)
    for extra_ln in range(k + 1, len(lines)):
        if lines[extra_ln].split():
            raise ValueError(f"line {extra_ln + 1}: unexpected extra row")
    return LinearCode(Matrix.from_indices(spec, rows))


def _outcome(parse, text):
    try:
        return parse(text).gen.index_rows()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=400)
@given(st.booleans().flatmap(matrix_text))
def test_matrix_parse_matches_token_loop(text):
    assert _outcome(parse_matrix_text, text) == _outcome(_parse_by_tokens, text)


@pytest.mark.parametrize("tok, message", [
    ("x", "line 3, column 2: not an integer: 'x'"),
    ("1.0", "line 3, column 2: not an integer: '1.0'"),
    ("q", "line 3, column 2: not an integer: 'q'"),
    ("-1", "line 3, column 2: index -1 out of range for GF(11)"),
    # numpy overflows where int() does not
    ("99999999999999999999",
     "line 3, column 2: index 99999999999999999999 out of range for GF(11)"),
])
def test_matrix_parse_names_the_first_bad_token(tok, message):
    text = f"11 4 3\n1 0 0 5\n0 {tok} 0 7\n0 0 1 {tok}\n"
    with pytest.raises(ValueError) as exc:
        parse_matrix_text(text)
    assert str(exc.value) == message
    assert _outcome(_parse_by_tokens, text) == f"ValueError: {message}"


@pytest.mark.parametrize("text, message", [
    # a fault in a row comes before any fault in a later row
    ("5 3 2\n1 7 0\n1 0\n", "line 2, column 2: index 7 out of range for GF(5)"),
    ("5 3 2\n1 0\n1 x 0\n", "line 2: expected 3 entries, found 2"),
    # and, in one row, before any fault in a later column
    ("5 3 1\n9223372036854775808 x 0\n",
     "line 2, column 1: index 9223372036854775808 out of range for GF(5)"),
])
def test_matrix_parse_names_the_first_of_two_faults(text, message):
    assert _outcome(parse_matrix_text, text) == f"ValueError: {message}"
    assert _outcome(_parse_by_tokens, text) == f"ValueError: {message}"


def test_matrix_parse_checks_each_row_length():
    # 4 + 2 entries fill a 2 x 3 body, but the rows are ragged
    text = "2 3 2\n1 0 1 1\n0 1\n"
    assert _outcome(parse_matrix_text, text) == "ValueError: line 2: expected 3 entries, found 4"
    assert _outcome(_parse_by_tokens, text) == _outcome(parse_matrix_text, text)


def test_matrix_parse_accepts_what_int_accepts():
    # a sign, a digit separator, a negative zero, Arabic-Indic and fullwidth digits
    code = parse_matrix_text("11 6 1\n+1 1_0 -0 \u0663 \uff11 0\n")
    assert code.gen.index_rows() == [[1, 10, 0, 3, 1, 0]]
