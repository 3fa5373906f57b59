from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from zetacode import ag, cli, enumerator, linear_code, zeta
from zetacode.cli import main
from zetacode.gf import GF

HAMMING8 = "2 8 4\n1 0 0 0 0 1 1 1\n0 1 0 0 1 0 1 1\n0 0 1 0 1 1 0 1\n0 0 0 1 1 1 1 0\n"
HAMMING7 = "2 7 4\n1 0 0 0 0 1 1\n0 1 0 0 1 0 1\n0 0 1 0 1 1 0\n0 0 0 1 1 1 1\n"
TETRA = "3 4 2\n1 1 1 0\n0 1 2 1\n"
DEGENERATE = "2 3 1\n1 1 0\n"
CURVE5 = "5 0 0 0 1 1\n"
W8_ENUM = "8 1 0 0 0 14 0 0 0 1\n"


@pytest.fixture()
def hamming_file(tmp_path):
    p = tmp_path / "hamming.txt"
    p.write_text(HAMMING8)
    return str(p)


@pytest.fixture()
def tetra_file(tmp_path):
    p = tmp_path / "tetra.txt"
    p.write_text(TETRA)
    return str(p)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out


def run_with_err(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out = run(capsys, argv)
    assert rc == 0
    return json.loads(out)


def test_wdist_hamming(capsys, hamming_file):
    payload = run_json(capsys, ["wdist", hamming_file])
    assert payload["schema"] == "zetacode/1"
    assert payload["distribution"] == [1, 0, 0, 0, 14, 0, 0, 0, 1]
    assert payload["d"] == 4 and payload["genus"] == 1
    assert all(c["passed"] for c in payload["checks"])


def test_wdist_tetra(capsys, tetra_file):
    payload = run_json(capsys, ["wdist", tetra_file])
    assert payload["distribution"] == [1, 0, 0, 8, 0]
    assert payload["d"] == 3 and payload["genus"] == 0


def test_dual_command(capsys, hamming_file):
    payload = run_json(capsys, ["dual", hamming_file])
    assert payload["dual_k"] == 4
    assert payload["self_dual"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_zeta_hamming(capsys, hamming_file):
    payload = run_json(capsys, ["zeta", hamming_file])
    assert payload["zeta"]["coefficients"] == ["1/5", "2/5", "2/5"]
    assert payload["zeta"]["rh"]["holds"] is True
    assert payload["formally_self_dual"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_zeta_tetra_is_one(capsys, tetra_file):
    payload = run_json(capsys, ["zeta", tetra_file])
    assert payload["zeta"]["coefficients"] == ["1"]


def test_zeta_degenerate_punctures_with_notice(capsys, tmp_path):
    p = tmp_path / "deg.txt"
    p.write_text(DEGENERATE)
    payload = run_json(capsys, ["zeta", str(p)])
    assert payload["punctured_coordinates"] == 1
    assert "punctured" in payload["notice"]
    assert payload["n"] == 2
    assert payload["zeta"]["coefficients"] == ["1"]


def test_rh_command(capsys):
    payload = run_json(capsys, ["rh", "--q", "2", "1/5", "2/5", "2/5"])
    assert payload["rh"]["holds"] is True
    payload = run_json(capsys, ["rh", "--q", "2", "-2", "5", "-2"])
    assert payload["rh"]["holds"] is False


def test_rh_prints_no_negative_zero(capsys):
    # P(T) = 1 + 2T^2 has its root i/sqrt(2) at -0.0 + 0.707...j in numpy
    payload = run_json(capsys, ["rh", "--q", "2", "1", "0", "2"])
    assert [r["re"] for r in payload["rh"]["roots"]] == ["0", "0"]
    rc, out = run(capsys, ["rh", "--q", "2", "1", "0", "2", "--format", "text"])
    assert rc == 0
    assert out.count("    re: 0\n") == 2 and "re: -0" not in out


def test_rh_rejects_zero_constant_term(capsys):
    rc, out, err = run_with_err(capsys, ["rh", "--q", "2", "0", "1"])
    assert (rc, out) == (1, "")
    assert err == "error: the constant term is 0, and no zeta polynomial has a zero constant term\n"


def test_rh_accepts_zero_leading_coefficient(capsys):
    # a zero top coefficient only lowers the degree: P(T) = 1
    payload = run_json(capsys, ["rh", "--q", "2", "1", "0"])
    assert payload["coefficients"] == ["1", "0"]
    assert payload["rh"]["holds"] is True and payload["rh"]["roots"] == []


def test_classify_command(capsys, tmp_path):
    p = tmp_path / "w8.txt"
    p.write_text(W8_ENUM)
    payload = run_json(capsys, ["classify", str(p), "2"])
    assert payload["type"] == "II"
    assert payload["extremal"] is True


@pytest.mark.parametrize(
    "text, checks",
    [
        (W8_ENUM, ["type_conditions_consistent", "divisibility_matches_type"]),
        # w8 * w12, a formal enumerator of type none
        ("20 1 0 0 0 -19 0 0 0 -494 0 0 0 -494 0 0 0 -19 0 0 0 1\n",
         ["type_conditions_consistent"]),
    ],
)
def test_classify_command_checks_and_transform_count(
    capsys, tmp_path, transform_log, text, checks
):
    p = tmp_path / "enum.txt"
    p.write_text(text)
    payload = run_json(capsys, ["classify", str(p), "2"])
    assert [c["name"] for c in payload["checks"]] == checks
    assert all(c["passed"] for c in payload["checks"])
    assert len(transform_log) == 1
    # a repeated command in one process pays what a fresh process pays
    assert run_json(capsys, ["classify", str(p), "2"]) == payload
    assert len(transform_log) == 2


def test_zeta_expands_two_transforms(capsys, tmp_path, hamming_file, transform_log):
    payload = run_json(capsys, ["zeta", hamming_file])
    assert all(c["passed"] for c in payload["checks"])
    # one for the code's enumerator, one for the dual's
    assert len(transform_log) == 2
    # [7,4]: the dual is enumerated; one transform gives the code's
    # enumerator, one the code's zeta, and the dual's zeta reuses the first
    transform_log.clear()
    payload = run_json(capsys, ["zeta", _matrix_file(tmp_path, _hamming7())])
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    assert checks["functional_equation_matches_dual_zeta"] is True
    assert all(checks.values())
    assert len(transform_log) == 2


def _matrix_file(tmp_path, code, name="code.txt"):
    rows = "".join(" ".join(map(str, row)) + "\n" for row in code.gen.index_rows())
    p = tmp_path / name
    p.write_text(f"{code.spec.q} {code.n} {code.k}\n{rows}")
    return str(p)


def _hamming7():
    return linear_code.parse_matrix_text(HAMMING7)


@pytest.mark.parametrize("cmd", ["wdist", "dual", "zeta"])
def test_code_commands_row_reduce_each_input_once(cmd, unit_corpus, rref_calls, tmp_path, capsys):
    # each input code, and the same code with a zero coordinate in front,
    # which zeta punctures away
    for c in unit_corpus:
        padded = linear_code.LinearCode(linear_code.Matrix(c.spec, np.pad(c.gen.array, ((0, 0), (1, 0)))))
        for code in (c, padded):
            path = _matrix_file(tmp_path, code)
            del rref_calls[:]
            main([cmd, path])
            capsys.readouterr()
            assert rref_calls == [c.k]


def test_code_summary_matches_brute_force(unit_corpus):
    codes = list(unit_corpus) + [linear_code.dual(c) for c in unit_corpus] + [_hamming7()]
    for code in codes:
        summary, enum, dual_enum = cli._code_summary(code, linear_code.DEFAULT_BUDGET)
        assert enum == linear_code.weight_distribution(code)
        assert summary["distribution"] == list(enum.nums)
        if dual_enum is not None:
            assert dual_enum == linear_code.weight_distribution(linear_code.dual(code))


@pytest.fixture()
def enumerations(monkeypatch) -> dict:
    """Words enumerated and dual() calls made, counted at the kernel."""
    seen = {"words": 0, "dual_calls": 0}
    blocks, dual = linear_code._weight_blocks, linear_code.dual

    def counted_blocks(code, budget):
        for weights in blocks(code, budget):
            seen["words"] += weights.size
            yield weights

    def counted_dual(code):
        seen["dual_calls"] += 1
        return dual(code)

    monkeypatch.setattr(linear_code, "_weight_blocks", counted_blocks)
    monkeypatch.setattr(linear_code, "dual", counted_dual)
    return seen


@pytest.mark.parametrize("command", ["wdist", "zeta"])
def test_one_side_enumerated(capsys, tmp_path, unit_corpus, enumerations, command):
    for i, code in enumerate(unit_corpus + [_hamming7()]):
        path = _matrix_file(tmp_path, code, f"c{i}.txt")
        enumerations.update(words=0, dual_calls=0)
        rc, _ = run(capsys, [command, path])
        if command == "zeta":
            code = linear_code.puncture_degenerate(code)
            if code.k == code.n:
                assert rc == 1
                continue
        assert rc == 0
        q, n, k = code.spec.q, code.n, code.k
        assert enumerations["words"] == min(q**k, q ** (n - k))
        # the dual is built only when it has fewer words; on a tie the
        # code is the side enumerated
        assert enumerations["dual_calls"] == (1 if n - k < k else 0)


def test_json_writer_matches_json_dumps_on_corpus_reports(capsys, tmp_path, unit_corpus,
                                                           monkeypatch):
    written, sizes = [], {"dual_rows": 0, "roots": 0}
    emit = cli._emit

    def checked(payload, config):
        assert cli._json_text(payload) == json.dumps(payload, indent=2)
        written.append(payload["command"])
        sizes["dual_rows"] = max(sizes["dual_rows"], len(payload.get("dual_rows", ())))
        sizes["roots"] = max(sizes["roots"], len(payload.get("rh", {}).get("roots", ())))
        emit(payload, config)

    monkeypatch.setattr(cli, "_emit", checked)
    enum_file, curve_file = tmp_path / "w8.txt", tmp_path / "curve.txt"
    enum_file.write_text(W8_ENUM)
    curve_file.write_text(CURVE5)
    invocations = [
        ["classify", str(enum_file), "2"],
        ["rh", "--q", "2", "1/5", "2/5", "2/5"],
        ["mds", "12", "5", "7"],
        ["grs", "--q", "7", "--k", "3"],
        ["elliptic", str(curve_file), "2"],
        ["curve-zeta", "--q", "5", "--genus", "2", "4", "22"],
        # 1 + 32 T^10: ten roots, enough for the array residual path
        ["rh", "--q", "2", "1"] + ["0"] * 9 + ["32"],
    ]
    # a [64, 4] ternary code: its dual report carries a 60-row matrix
    rng = np.random.default_rng(64)
    wide = np.hstack([np.eye(4, dtype=np.int64), rng.integers(0, 3, (4, 60))])
    corpus = list(unit_corpus) + [linear_code.LinearCode(linear_code.Matrix(GF(3), wide))]
    for i, code in enumerate(corpus):
        path = _matrix_file(tmp_path, code, f"c{i}.txt")
        invocations += [["wdist", path], ["dual", path], ["zeta", path]]
    for argv in invocations:
        for fmt in ("json", "text"):
            rc, _ = run(capsys, argv + ["--format", fmt])
            assert rc in (0, 1)
    assert set(written) == {argv[0] for argv in invocations}
    assert len(written) > 2 * len(unit_corpus) * 3
    assert sizes["dual_rows"] >= 60 and sizes["roots"] >= zeta._ROOTS_PER_ARRAY


def test_json_writer_refuses_floats_and_fractions():
    records = [{"re": "1", "im": "0"}] * cli._FEW_RECORDS + [{"re": "-1", "im": 0.0}]
    for value in (1.5, [1.5], [1, 2.0], {"x": [0.0]}, Fraction(1, 2), {"x": Fraction(3)},
                  records, [0, 7, 1023, 1024, -1, 2.5]):
        with pytest.raises(TypeError):
            cli._json_text(value)
    with pytest.raises(TypeError):
        cli._json_text({1: "a"})  # keys must be str


def test_input_files_may_start_with_a_byte_order_mark(capsys, tmp_path):
    # an editor may save UTF-8 with a byte-order mark; it is not part of the
    # first field
    for name, text, argv in (
        ("code", HAMMING8, ["wdist", "FILE"]),
        ("enum", W8_ENUM, ["classify", "FILE", "2"]),
        ("curve", CURVE5, ["elliptic", "FILE", "2"]),
    ):
        outs = []
        for prefix in ("", "\ufeff"):
            path = tmp_path / f"{name}{len(prefix)}.txt"
            path.write_text(prefix + text, encoding="utf-8")
            assert path.read_bytes().startswith(b"\xef\xbb\xbf") == bool(prefix)
            outs.append(run_with_err(capsys, [str(path) if a == "FILE" else a for a in argv]))
        assert outs[0] == outs[1] and outs[0][0] == 0 and not outs[0][2]


def test_json_report_leaves_no_reference_cycle(tmp_path):
    # a report leaves the cyclic collector nothing to collect
    enum_file = tmp_path / "w8.txt"
    enum_file.write_text(W8_ENUM)
    argvs = [["classify", str(enum_file), "2"], ["rh", "--q", "2", "1/5", "2/5", "2/5"]]

    def reports():
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0

    reports()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        reports()
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _binary_20_16():
    """A binary [20,16] code: 2^16 words, its dual 2^4."""
    rows = [[int(i == j) for j in range(16)] + [i >> b & 1 for b in range(4)] for i in range(16)]
    return linear_code.LinearCode(linear_code.Matrix.from_indices(GF(2), rows))


def test_dual_exit_code_does_not_depend_on_budget(capsys, tmp_path, enumerations):
    path = _matrix_file(tmp_path, _binary_20_16())
    # only C-dual fits: its distribution is printed, with no MacWilliams check
    payload = run_json(capsys, ["dual", path, "--budget", "1000"])
    assert sum(payload["dual_distribution"]) == 16
    checks = [c["name"] for c in payload["checks"]]
    assert "macwilliams_transform_matches_dual_distribution" not in checks
    assert all(c["passed"] for c in payload["checks"])
    assert enumerations["words"] == 16
    # neither side fits: nothing is enumerated
    enumerations["words"] = 0
    payload = run_json(capsys, ["dual", path, "--budget", "10"])
    assert "dual_distribution" not in payload
    assert enumerations["words"] == 0
    # both fit: both sides are enumerated for the check
    payload = run_json(capsys, ["dual", path])
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    assert checks["macwilliams_transform_matches_dual_distribution"] is True
    assert enumerations["words"] == 16 + 2**16


def test_budget_error_names_the_code_enumerated(capsys, tmp_path):
    path = _matrix_file(tmp_path, _binary_20_16())
    for command in ("wdist", "zeta"):
        rc, out, err = run_with_err(capsys, [command, path, "--budget", "10"])
        assert rc == 2 and out == ""
        assert err == "error: [20, 4]_2 code has 16 words, over budget 10\n"


def _macwilliams_off_by_half(monkeypatch, index):
    """Make every MacWilliams transform add 1/2 to its coefficient ``index``."""
    exact = enumerator.macwilliams_dual

    def off_by_half(enum, q, k):
        coeffs = list(exact(enum, q, k).coeffs)
        coeffs[index] += Fraction(1, 2)
        return enumerator.WeightEnumerator(enum.n, tuple(coeffs))

    monkeypatch.setattr(enumerator, "macwilliams_dual", off_by_half)


def test_dual_macwilliams_check_is_exact(capsys, hamming_file, monkeypatch):
    _macwilliams_off_by_half(monkeypatch, 4)  # 29/2 must not pass for 14
    payload = run_json(capsys, ["dual", hamming_file])
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    assert checks["macwilliams_transform_matches_dual_distribution"] is False


def test_a_broken_macwilliams_transform_is_an_internal_error(capsys, tmp_path, monkeypatch):
    # the [4, 3] parity code has n - k < k, so its distribution is the
    # transform of its dual's; a count of 1/2 there is the program's fault
    path = tmp_path / "parity.txt"
    path.write_text("2 4 3\n1 0 0 1\n0 1 0 1\n0 0 1 1\n")
    _macwilliams_off_by_half(monkeypatch, 1)
    rc, out, err = run_with_err(capsys, ["wdist", str(path)])
    assert (rc, out) == (cli.EXIT_INTERNAL, "")
    assert err == "internal error: the dual's MacWilliams transform is not a count vector\n"


def test_dual_builds_each_gram_product_once(capsys, hamming_file, monkeypatch):
    calls = []
    gram = linear_code._gram

    def counted(spec, a, b):
        calls.append((a.shape, b.shape))
        return gram(spec, a, b)

    monkeypatch.setattr(linear_code, "_gram", counted)
    payload = run_json(capsys, ["dual", hamming_file])
    assert payload["self_dual"] is True and payload["self_orthogonal"] is True
    # G G^T for self-orthogonality and G H^T for the dual check
    assert len(calls) == 2


@pytest.mark.parametrize(
    "coeffs, message",
    [
        (["1", "1e400"], "the coefficient of T^1 is outside float range"),
        (["1e400", "1"], "the coefficient of T^0 is outside float range"),
        (["1", "0", "0", "0", "1e-320"],
         "the coefficient of T^0 divided by the leading one is outside float range"),
        (["1", "1e-400"], "the coefficient of T^1 is outside float range"),
        # the roots are about -1.1e200 and 3.3e-210: 1.1e200 squared is not a float
        (["--", "-3", "1e210", "9e9"], "a root's size to the power 2 is outside float range"),
    ],
)
def test_rh_coefficient_beyond_float_range(capsys, coeffs, message):
    rc, out, err = run_with_err(capsys, ["rh", "--q", "2", *coeffs])
    assert rc == 1 and out == ""
    assert message in err


def _random_rh_token(rng: random.Random) -> str:
    """A coefficient token: an integer, a fraction, or a decimal power of
    ten up to 1e330 either way, of either sign."""
    sign = rng.choice(("", "-"))
    kind = rng.randrange(4)
    if kind == 0:
        return sign + str(rng.randrange(10 ** rng.randint(1, 30)))
    if kind == 1:
        return f"{sign}{rng.randint(1, 10**12)}/{rng.randint(1, 10 ** rng.randint(1, 12))}"
    return f"{sign}{rng.randint(1, 9)}e{rng.choice(('', '-'))}{rng.randint(0, 330)}"


def test_rh_random_coefficients_never_end_in_an_internal_error():
    # a root too large for the float scale of the residuals made about 15%
    # of these exit 3; each must be answered (0) or refused as input (1)
    rng = random.Random(25)
    codes = []
    for _ in range(1600):
        q = rng.choice((2, 3, 4, 5, 7, 8, 9, 16, 25, 27))
        coeffs = ["1"] + [_random_rh_token(rng) for _ in range(rng.randint(1, 8))]
        rng.shuffle(coeffs)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(["rh", "--q", str(q), "--", *coeffs]))
    assert set(codes) <= {0, 1}
    assert codes.count(0) > 800


def test_rh_negative_coefficients_follow_a_double_dash(capsys):
    # argparse reads -1/2 and -1e5 before a "--" as options
    payload = run_json(capsys, ["rh", "--q", "2", "--", "1", "-1/2"])
    assert payload["coefficients"] == ["1", "-1/2"]


@pytest.mark.parametrize("token", ["x", "1/0"])
def test_rh_coefficient_not_a_rational(capsys, token):
    rc, out, err = run_with_err(capsys, ["rh", "--q", "2", "1", token])
    assert rc == 1 and out == ""
    assert "coefficient 2: not a rational" in err


@pytest.mark.parametrize("multipliers", ["7,1,1,1,1", "-1,1,1,1,1", "0,1,1,1,1"])
def test_grs_multiplier_out_of_range(capsys, multipliers):
    rc, out, err = run_with_err(
        capsys, ["grs", "--q", "5", "--k", "2", f"--multipliers={multipliers}"]
    )
    bad = multipliers.split(",")[0]
    assert rc == 1 and out == ""
    assert f"column multiplier {bad} is not a nonzero element of GF(5)" in err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_grs_empty_length_is_invalid(capsys, n):
    rc, out, err = run_with_err(capsys, ["grs", "--q", "5", "--k", "2", "--n", n])
    assert rc == 1 and out == ""
    assert "need 1 <= k <= n = 0, got k = 2" in err


@pytest.mark.parametrize("argv, message", [
    (["--k", "2", "--multipliers", "1,2"], "need 5 column multipliers, got 2"),
    (["--k", "1", "--alphas", "0,7"], "evaluation point 7 out of range for GF(5)"),
])
def test_grs_list_that_does_not_fit_the_code(capsys, argv, message):
    assert run_with_err(capsys, ["grs", "--q", "5", *argv]) == (1, "", f"error: {message}\n")


def test_grs_length_must_agree_with_alphas(capsys):
    rc, out, err = run_with_err(
        capsys, ["grs", "--q", "5", "--k", "2", "--n", "3", "--alphas", "0,1,2,3"]
    )
    assert rc == 1 and out == ""
    assert err == "error: --n 3 disagrees with the 4 evaluation points of --alphas\n"
    agreeing = run_json(capsys, ["grs", "--q", "5", "--k", "2", "--n", "4", "--alphas", "0,1,2,3"])
    assert agreeing == run_json(capsys, ["grs", "--q", "5", "--k", "2", "--alphas", "0,1,2,3"])
    assert agreeing["n"] == 4


@pytest.mark.parametrize("flag", ["--alphas", "--multipliers"])
@pytest.mark.parametrize("value", ["", " "])
def test_grs_empty_list_is_invalid(capsys, flag, value):
    rc, out, err = run_with_err(capsys, ["grs", "--q", "5", "--k", "2", flag, value])
    assert rc == 1 and out == ""
    assert err == f"error: {flag} needs at least one comma-separated integer\n"


@pytest.mark.parametrize("flag, value, token", [
    ("--alphas", "0,1,x", "'x'"),
    ("--alphas", "0,,1", "''"),
    ("--multipliers", "1,2.5,1,1,1", "'2.5'"),
    ("--multipliers", "1,1,1,1,", "''"),
])
def test_grs_list_entry_must_be_an_integer(capsys, flag, value, token):
    rc, out, err = run_with_err(capsys, ["grs", "--q", "5", "--k", "2", f"{flag}={value}"])
    assert rc == 1 and out == ""
    assert err == f"error: {flag}: not an integer: {token}\n"


def test_grs_lists_allow_spaces_around_entries(capsys):
    spaced = run_json(capsys, ["grs", "--q", "7", "--k", "2",
                               "--alphas", "0, 1, 3, 5", "--multipliers", " 1,2 ,3,1"])
    assert spaced == run_json(capsys, ["grs", "--q", "7", "--k", "2",
                                       "--alphas", "0,1,3,5", "--multipliers", "1,2,3,1"])


def test_grs_length_beyond_field_order(capsys):
    rc, out, err = run_with_err(capsys, ["grs", "--q", "5", "--k", "2", "--n", "7"])
    assert rc == 1 and out == ""
    assert err == "error: need n <= q = 5 distinct evaluation points, got n = 7\n"
    assert run_json(capsys, ["grs", "--q", "5", "--k", "2", "--n", "5"])["n"] == 5


@pytest.mark.parametrize(
    "argv, q, n",
    [(["--q", "4", "--k", "4"], 4, 4), (["--q", "5", "--k", "3", "--n", "3"], 5, 3)],
)
def test_grs_full_space_names_zero_dual(capsys, argv, q, n):
    rc, out, err = run_with_err(capsys, ["grs", *argv])
    assert rc == 1 and out == ""
    assert f"undefined for the full space GF({q})^{n}" in err and "zero code" in err
    assert "puncture" not in err


@pytest.mark.parametrize("q", ["-4", "0", "1", "6"])
@pytest.mark.parametrize("command", ["rh", "curve-zeta", "classify", "mds"])
def test_command_line_field_order_must_be_a_prime_power(capsys, tmp_path, command, q):
    w8f = tmp_path / "w8.txt"
    w8f.write_text(W8_ENUM)
    argv = {
        "rh": ["rh", "--q", q, "1", "1"],
        "curve-zeta": ["curve-zeta", "--q", q, "--genus", "1", "3"],
        "classify": ["classify", str(w8f), q],
        "mds": ["mds", "4", "3", q],
    }[command]
    rc, out, err = run_with_err(capsys, argv)
    assert rc == 1 and out == ""
    message = "6 is not a prime power" if q == "6" else f"field order must be at least 2, got {q}"
    assert err == f"error: {message}\n"


def test_mds_command(capsys):
    payload = run_json(capsys, ["mds", "4", "3", "3"])
    assert payload["coefficients"] == ["1", "0", "0", "8", "0"]
    assert all(c["passed"] for c in payload["checks"])


def test_grs_command(capsys):
    payload = run_json(capsys, ["grs", "--q", "5", "--k", "2"])
    assert payload["n"] == 5 and payload["k"] == 2 and payload["d"] == 4
    assert all(c["passed"] for c in payload["checks"])


def test_grs_command_explicit_points(capsys):
    payload = run_json(
        capsys,
        ["grs", "--q", "7", "--k", "2", "--alphas", "0,1,3,5", "--multipliers", "1,2,3,1"],
    )
    assert payload["n"] == 4 and payload["d"] == 3
    assert all(c["passed"] for c in payload["checks"])


def test_grs_command_k1(capsys):
    payload = run_json(capsys, ["grs", "--q", "5", "--k", "1"])
    assert payload["distribution"] == [1, 0, 0, 0, 0, 4]
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    assert checks["distribution_matches_closed_form"] is True
    assert all(checks.values())


def test_zeta_long_low_rate_code_not_formally_self_dual(capsys, tmp_path):
    # binary [64,6]: the simplex columns 1..63 plus a repeated column; its
    # 2^58-word dual is over budget, and its zeta polynomial comes from the
    # MacWilliams transform of the code's enumerator
    cols = list(range(1, 64)) + [1]
    rows = [" ".join(str(c >> i & 1) for c in cols) for i in range(6)]
    p = tmp_path / "c64.txt"
    p.write_text("2 64 6\n" + "\n".join(rows) + "\n")
    payload = run_json(capsys, ["zeta", str(p)])
    assert (payload["n"], payload["k"], payload["d"]) == (64, 6, 32)
    assert payload["formally_self_dual"] is False
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    assert checks["functional_equation_matches_dual_zeta"] is True
    assert all(checks.values())


@pytest.mark.parametrize(
    "text, q, defect",
    [
        (W8_ENUM, "3", "a weight-one term (dual distance 1)"),
        ("2 1 2 1\n", "2", "no positive support"),  # the full space GF(2)^2
    ],
)
def test_classify_degenerate_enumerator_names_the_transform(capsys, tmp_path, text, q, defect):
    p = tmp_path / "enum.txt"
    p.write_text(text)
    payload = run_json(capsys, ["classify", str(p), q])
    assert payload["zeta"] == {
        "error": f"the enumerator's MacWilliams transform has {defect}, so no zeta polynomial exists"
    }


@pytest.mark.parametrize(
    "text, message", [("", "empty enumerator text"), ("-1 1\n", "token 1: negative length -1")]
)
def test_classify_unreadable_enumerator(capsys, tmp_path, text, message):
    p = tmp_path / "enum.txt"
    p.write_text(text)
    assert run_with_err(capsys, ["classify", str(p), "2"]) == (1, "", f"error: {message}\n")


def test_classify_command_ternary(capsys, tmp_path):
    p = tmp_path / "tetra_enum.txt"
    p.write_text("4 1 0 0 8 0\n")
    payload = run_json(capsys, ["classify", str(p), "3"])
    assert payload["type"] == "III"
    assert payload["extremal"] is True


def test_mds_command_d_n_plus_one(capsys):
    # the enumerator x^n of the zero code, whose total is q^0 = 1
    payload = run_json(capsys, ["mds", "4", "5", "3"])
    assert payload["coefficients"] == ["1", "0", "0", "0", "0"]
    assert all(c["passed"] for c in payload["checks"])


def test_mds_command_invalid_d(capsys):
    rc, _, err = run_with_err(capsys, ["mds", "5", "5", "2"])
    assert rc == 1 and "excluded" in err


@pytest.mark.parametrize("n, d", [("0", "1"), ("-1", "0")])
def test_mds_command_needs_a_positive_length(capsys, n, d):
    rc, out, err = run_with_err(capsys, ["mds", n, d, "2"])
    assert rc == 1 and out == ""
    assert err == f"error: length n must be >= 1, got n={n}\n"


def test_elliptic_command(capsys, tmp_path):
    p = tmp_path / "curve.txt"
    p.write_text(CURVE5)
    payload = run_json(capsys, ["elliptic", str(p), "2"])
    assert payload["rational_points"] == 9
    assert payload["curve_zeta"] == [1, 3, 5]
    assert payload["n"] == 8 and payload["k"] == 2
    assert all(c["passed"] for c in payload["checks"])


def test_elliptic_solves_the_curve_points_once(capsys, tmp_path, monkeypatch):
    calls = []
    solve = ag._affine_point_indices

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(ag, "_affine_point_indices", counted)
    p = tmp_path / "curve.txt"
    p.write_text(CURVE5)
    payload = run_json(capsys, ["elliptic", str(p), "2"])
    assert payload["rational_points"] == 9 and payload["n"] == 8
    assert all(c["passed"] for c in payload["checks"])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "curve, n1", [("4 0 0 1 0 0\n", 9), ("9 0 0 0 3 0\n", 4), ("9 0 0 0 1 0\n", 16)]
)
def test_elliptic_hasse_bound_is_exact_at_the_boundary(capsys, tmp_path, curve, n1):
    # (N_1 - q - 1)^2 = 4q: the trace sits on the Hasse bound itself
    p = tmp_path / "curve.txt"
    p.write_text(curve)
    payload = run_json(capsys, ["elliptic", str(p), "2"])
    assert payload["rational_points"] == n1
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    assert checks["hasse_bound"] is True
    # 1 - aT + qT^2 = (1 -+ sT)^2: the double root +-1/s is divided out exactly
    assert checks["curve_rh"] is True
    assert payload["curve_rh_max_deviation"] == "0"


@pytest.mark.parametrize(
    "argv, roots",
    [
        # (1 - 2T)^2, (1 + 3T)^2, (1 - 3T)^2 (1 + 3T)^2, (1 - 2T)^2 (1 + 2T)^2
        (["curve-zeta", "--q", "4", "--genus", "1", "1"], ["0.5"] * 2),
        (["curve-zeta", "--q", "9", "--genus", "1", "16"], ["-0.33333333333333331"] * 2),
        (["curve-zeta", "--q", "9", "--genus", "2", "10", "46"],
         ["-0.33333333333333331"] * 2 + ["0.33333333333333331"] * 2),
        (["curve-zeta", "--q", "4", "--genus", "2", "5", "1"], ["-0.5"] * 2 + ["0.5"] * 2),
        # (1 - 2T)^3 and (1 - 3T)^2 (1 + 3T): odd degree, no functional
        # equation before the boundary factors are divided out
        (["rh", "--q", "4", "--", "1", "-6", "12", "-8"], ["0.5"] * 3),
        (["rh", "--q", "9", "--", "1", "-3", "-9", "27"],
         ["-0.33333333333333331"] + ["0.33333333333333331"] * 2),
    ],
)
def test_curve_zeta_boundary_factors_hold(capsys, argv, roots):
    payload = run_json(capsys, argv)
    assert payload["rh"]["holds"] is True
    assert payload["rh"]["max_deviation"] == "0"
    assert [z["re"] for z in payload["rh"]["roots"]] == roots
    assert all(z["im"] == "0" for z in payload["rh"]["roots"])


def test_curve_zeta_command(capsys):
    payload = run_json(capsys, ["curve-zeta", "--q", "5", "--genus", "1", "9"])
    assert payload["coefficients"] == [1, 3, 5]
    assert payload["rh"]["holds"] is True


def test_curve_zeta_functional_equation_is_computed(capsys, monkeypatch):
    payload = run_json(capsys, ["curve-zeta", "--q", "3", "--genus", "2", "4", "22"])
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    assert checks["functional_equation"] is True
    seen = []
    monkeypatch.setattr(
        zeta, "functional_equation_holds",
        lambda q, c, sign=1: seen.append((q, tuple(c), sign)) or False,
    )
    payload = run_json(capsys, ["curve-zeta", "--q", "5", "--genus", "1", "9"])
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    # the root-circle verdict asks once, on the coefficients with no factor
    # at +-1/sqrt(5) to divide out, then the check asks on the report's
    assert seen == [(5, (1, 3, 5), 1), (5, (1, 3, 5), 1)]
    assert checks["functional_equation"] is False


def test_exit_code_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 4 2\n1 0 1\n0 1 1 1\n")
    rc, _, err = run_with_err(capsys, ["wdist", str(p)])
    assert rc == 1
    assert "line 2" in err


@pytest.mark.parametrize(
    "argv, code", [(["wdist"], 1), (["mds", "4", "x", "3"], 1), (["frob"], 1), (["--help"], 0)]
)
def test_usage_errors_exit_invalid_input(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert "usage: zetacode" in (captured.err if code else captured.out)


def test_zeta_full_space_code_names_zero_dual(capsys, tmp_path):
    p = tmp_path / "full.txt"
    p.write_text("3 2 2\n1 0\n0 1\n")
    rc, out, err = run_with_err(capsys, ["zeta", str(p)])
    assert rc == 1 and out == ""
    assert "undefined for the full space GF(3)^2" in err and "zero code" in err
    assert "puncture" not in err


def test_exit_code_missing_file(capsys):
    rc, _ = run(capsys, ["wdist", "/nonexistent/matrix.txt"])
    assert rc == 1


def test_exit_code_budget(capsys, hamming_file):
    rc, _ = run(capsys, ["wdist", hamming_file, "--budget", "4"])
    assert rc == 2


def test_exit_code_internal_error(capsys, hamming_file, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(zeta, "zeta_from_chinen", boom)
    assert run_with_err(capsys, ["zeta", hamming_file]) == (3, "", "internal error: boom\n")


def test_an_internal_division_by_zero_is_exit_3(capsys, hamming_file, monkeypatch):
    # exit 1 means invalid input; a division by zero inside a command is a fault
    def divide(*args, **kwargs):
        return 1 / 0

    monkeypatch.setattr(zeta, "zeta_from_chinen", divide)
    rc_out_err = run_with_err(capsys, ["zeta", hamming_file])
    assert rc_out_err == (3, "", "internal error: division by zero\n")


def test_env_budget_override(capsys, hamming_file, monkeypatch):
    monkeypatch.setenv("ZETACODE_BUDGET", "4")
    rc, _ = run(capsys, ["wdist", hamming_file])
    assert rc == 2
    # explicit flag wins over the environment
    monkeypatch.setenv("ZETACODE_BUDGET", "4")
    rc, _ = run(capsys, ["wdist", hamming_file, "--budget", "1000000"])
    assert rc == 0


def test_invalid_env_budget(capsys, hamming_file, monkeypatch):
    monkeypatch.setenv("ZETACODE_BUDGET", "lots")
    rc, _ = run(capsys, ["wdist", hamming_file])
    assert rc == 1


def test_invalid_config_values(capsys, hamming_file):
    rc, _ = run(capsys, ["wdist", hamming_file, "--budget", "0"])
    assert rc == 1
    rc, _ = run(capsys, ["zeta", hamming_file, "--tol", "-1"])
    assert rc == 1
    # a command that finds no roots still refuses a bad tolerance, by zeta's rule
    rc, out, err = run_with_err(capsys, ["wdist", hamming_file, "--tol", "-1"])
    assert (rc, out) == (1, "")
    assert err == "error: tolerance must be a positive finite number, got -1.0\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [["rh", "--q", "2", "1", "0", "3"], ["curve-zeta", "--q", "5", "--genus", "1", "9"]],
    ids=["rh", "curve-zeta"],
)
def test_non_finite_tolerance_rejected(capsys, argv, tol):
    rc, out, err = run_with_err(capsys, argv + [f"--tol={tol}"])
    assert rc == 1 and out == ""
    assert "tolerance must be a positive finite number" in err


def test_out_file(tmp_path, capsys, hamming_file):
    out = tmp_path / "report.json"
    rc, stdout = run(capsys, ["wdist", hamming_file, "--out", str(out)])
    assert rc == 0 and stdout == ""
    assert json.loads(out.read_text())["d"] == 4


def test_unwritable_out_file(capsys, hamming_file):
    rc, stdout, err = run_with_err(
        capsys, ["wdist", hamming_file, "--out", "/nonexistent/report.json"]
    )
    assert rc == 1 and stdout == ""
    assert "cannot write /nonexistent/report.json" in err


def test_text_format(capsys, hamming_file):
    rc, out = run(capsys, ["wdist", hamming_file, "--format", "text"])
    assert rc == 0
    assert "distribution" in out and "schema: zetacode/1" in out


def _key_layout(value, prefix=""):
    """Dotted paths of every key in a JSON report, in report order; the keys
    of a list of objects appear once, under ``name[]``."""
    paths = []
    if isinstance(value, dict):
        for key, item in value.items():
            paths.append(prefix + key)
            paths += _key_layout(item, prefix + key + ".")
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for item in value:
            paths += [p for p in _key_layout(item, prefix[:-1] + "[].") if p not in paths]
    return paths


_CODE = ["q", "n", "k", "d", "genus", "distribution"]
_CHECKS = ["checks", "checks[].name", "checks[].passed"]
_RH = ["rh", "rh.holds", "rh.tolerance", "rh.max_deviation", "rh.roots"]
_ROOTS = ["rh.roots[].re", "rh.roots[].im"]
_ZETA = ["zeta"] + [
    f"zeta.{key}"
    for key in ["coefficients", "degree", "q", "n", "d", "d_dual", "g", "g_dual",
                "p_at_one", "p_at_one_is_one"]
]


def _zeta_rh(roots: bool) -> list[str]:
    return [f"zeta.{key}" for key in _RH + (_ROOTS if roots else []) + ["rh.residuals"]]


def test_determinism_all_commands(capsys, tmp_path, hamming_file, tetra_file):
    curve = tmp_path / "curve.txt"
    curve.write_text(CURVE5)
    w8f = tmp_path / "w8.txt"
    w8f.write_text(W8_ENUM)
    head = ["schema", "command"]
    invocations = [
        (["wdist", hamming_file], head + _CODE + _CHECKS),
        (
            ["dual", hamming_file],
            head + ["q", "n", "k", "dual_k", "dual_rows", "self_dual", "self_orthogonal",
                    "dual_distribution"] + _CHECKS,
        ),
        (
            ["zeta", hamming_file],
            head + _CODE + _ZETA + _zeta_rh(True) + ["formally_self_dual"] + _CHECKS,
        ),
        (
            ["zeta", tetra_file],
            head + _CODE + _ZETA + _zeta_rh(False) + ["formally_self_dual"] + _CHECKS,
        ),
        (
            ["rh", "--q", "2", "1/5", "2/5", "2/5"],
            head + ["q", "coefficients"] + _RH + _ROOTS + ["rh.residuals"] + _CHECKS,
        ),
        (
            ["classify", str(w8f), "2"],
            head + ["n", "q", "virtually_self_dual", "reason", "b_max", "type", "v_pattern",
                    "d", "d_bound", "extremal", "formal_weight_enumerator"]
            + _ZETA + _zeta_rh(True) + _CHECKS,
        ),
        (["mds", "4", "3", "3"], head + ["n", "d", "q", "coefficients"] + _CHECKS),
        (["grs", "--q", "5", "--k", "2"], head + _CODE + ["generator_rows"] + _CHECKS),
        (
            ["elliptic", str(curve), "2"],
            head + ["curve", "rational_points", "curve_zeta", "curve_rh_max_deviation"]
            + _CODE + _CHECKS,
        ),
        (
            ["curve-zeta", "--q", "5", "--genus", "1", "9"],
            head + ["q", "genus", "counts", "coefficients"] + _RH + _ROOTS + _CHECKS,
        ),
    ]
    for argv, layout in invocations:
        rc1, out1 = run(capsys, argv)
        rc2, out2 = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert _key_layout(json.loads(out1)) == layout, argv[0]


# -- one parser per process ---------------------------------------------------


def test_main_calls_share_no_parsed_state(capsys, monkeypatch, hamming_file):
    # the parser is built by the first call below, with ZETACODE_BUDGET set
    cli.build_parser.cache_clear()
    monkeypatch.setenv("ZETACODE_BUDGET", "4")
    assert run(capsys, ["wdist", hamming_file])[0] == 2
    monkeypatch.delenv("ZETACODE_BUDGET")
    assert run(capsys, ["wdist", hamming_file])[0] == 0
    # a --budget of one call is not the next call's budget
    assert run(capsys, ["wdist", hamming_file, "--budget", "4"])[0] == 2
    monkeypatch.setenv("ZETACODE_BUDGET", "1000")
    assert run(capsys, ["wdist", hamming_file])[0] == 0
    assert run(capsys, ["wdist", hamming_file, "--budget", "1000"])[0] == 0
    monkeypatch.setenv("ZETACODE_BUDGET", "4")
    assert run(capsys, ["wdist", hamming_file])[0] == 2
    monkeypatch.delenv("ZETACODE_BUDGET")

    explicit = run_json(
        capsys,
        ["grs", "--q", "7", "--k", "2", "--alphas", "0,1,3,5", "--multipliers", "1,2,3,1"],
    )
    assert explicit["n"] == 4
    plain = run_json(capsys, ["grs", "--q", "5", "--k", "2"])
    assert plain["q"] == 5 and plain["n"] == 5
    assert plain["generator_rows"][0] == [1] * 5  # every multiplier is 1
    assert plain["generator_rows"][1] == [0, 1, 2, 3, 4]

    rc, text = run(capsys, ["wdist", hamming_file, "--format", "text"])
    assert rc == 0 and text.startswith("schema: zetacode/1\n")
    assert run_json(capsys, ["wdist", hamming_file])["distribution"] == [1, 0, 0, 0, 14, 0, 0, 0, 1]

    with pytest.raises(SystemExit) as exc:
        main(["grs", "--q", "5", "--k"])
    assert exc.value.code == 1
    assert "expected one argument" in capsys.readouterr().err
    assert run_json(capsys, ["grs", "--q", "5", "--k", "2"]) == plain


_COUNT_PARSERS = """
import json
from zetacode import cli

inits = []
original = cli._ArgumentParser.__init__

def counted(self, *args, **kwargs):
    inits.append(kwargs.get("prog"))
    original(self, *args, **kwargs)

cli._ArgumentParser.__init__ = counted
at_import = len(inits)
cli.main(["mds", "4", "3", "3"])
after_one = len(inits)
for _ in range(4):
    cli.main(["mds", "4", "3", "3", "--format", "text"])
    cli.main(["curve-zeta", "--q", "5", "--genus", "1", "9"])
print(json.dumps([at_import, after_one, len(inits), inits.count("zetacode")]))
"""


def test_parser_built_once_per_process():
    # the child imports the same zetacode as this test process
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_PARSERS], env=env, capture_output=True, text=True, check=True
    )
    at_import, after_one, after_nine, top_level = json.loads(proc.stdout.splitlines()[-1])
    assert at_import == 0  # importing the module builds no parser
    assert after_one > 0  # the top-level parser and one per subcommand
    assert after_nine == after_one
    assert top_level == 1
