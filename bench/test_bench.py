"""Self-tests of the benchmark: python3 -m pytest bench/ -q

The references must reproduce hand-known values, agree with zetacode's
field encoding, and turn a corrupted report into a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostclock  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

HAMMING = [[1, 0, 0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 1, 0, 1, 1],
           [0, 0, 1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 1, 1, 1, 0]]
W8 = [1, 0, 0, 0, 14, 0, 0, 0, 1]


def _cli(argv) -> tuple[int, str]:
    from zetacode import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def test_extended_hamming_distribution_and_zeta():
    assert refs.weight_distribution(2, HAMMING) == W8
    assert refs.krawtchouk_dual(W8, 2, 4) == W8
    zeta = [Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)]
    assert refs.expand_zeta(zeta, 8, 4, 2) == W8


def test_hexacode_over_gf4():
    w, wb = 2, 3  # t and t + 1 with t^2 = t + 1
    rows = [[1, 0, 0, 1, w, w], [0, 1, 0, w, 1, w], [0, 0, 1, w, w, 1]]
    assert refs.weight_distribution(4, rows) == [1, 0, 0, 0, 45, 0, 18]
    F = refs.field(4)
    assert F.mul[w][w] == wb and F.mul[w][wb] == 1


def test_odd_characteristic_enumeration_matches_brute_force():
    for q, rows in [(3, [[1, 0, 1, 2, 1], [0, 1, 1, 1, 2]]), (9, [[1, 0, 5, 7], [0, 1, 3, 8]]),
                    (7, [[1, 2, 3, 4, 5, 6]]), (8, [[1, 0, 3, 5], [0, 1, 6, 7]])]:
        F = refs.field(q)
        counts = [0] * (len(rows[0]) + 1)
        for msg in itertools.product(range(q), repeat=len(rows)):
            word = [0] * len(rows[0])
            for c, row in zip(msg, rows):
                word = [F.add[a][F.mul[c][b]] for a, b in zip(word, row)]
            counts[sum(1 for x in word if x)] += 1
        assert refs.weight_distribution(q, rows) == counts


def test_mds_closed_form():
    # [4, 2, 3] over GF(3), the tetracode
    assert refs.mds_distribution(4, 3, 3) == [1, 0, 0, 8, 0]
    assert sum(refs.mds_distribution(10, 4, 11)) == 11**7


def test_weil_numerator_and_counts():
    # (1 + 3T^2)^2 over GF(3) has point counts 4, 22
    coeffs = refs.weil_numerator(3, [0, 0])
    assert coeffs == [1, 0, 6, 0, 9]
    assert refs.point_counts(3, coeffs) == [4, 22]


def test_field_encoding_matches_zetacode():
    from zetacode.gf import GF

    for q in (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125):
        tab = GF(q).tables
        F = refs.field(q)
        assert tab.mul.tolist() == F.mul, q
        assert tab.add.tolist() == F.add, q


def test_w8_classifies_as_type_two():
    rc, out = _cli_file(["classify", "{file}", "2"], "8 " + " ".join(map(str, W8)))
    expect = {"q": 2, "n": 8, "enum": W8, "b_max": 4, "type": "II", "d_bound": 4}
    refs.check_report({"cmd": "classify"}, expect, rc, out)
    assert json.loads(out)["type"] == "II"


def _cli_file(argv, text, tmp=os.path.join(HERE, "out")):
    os.makedirs(tmp, exist_ok=True)
    path = os.path.join(tmp, f"selftest-{os.getpid()}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        return _cli([path if a == "{file}" else a for a in argv])
    finally:
        os.remove(path)


def _corrupt(out: str, edit) -> str:
    rep = json.loads(out)
    edit(rep)
    return json.dumps(rep, indent=2) + "\n"


def test_corrupted_reports_count_as_failed():
    text = "2 8 4\n" + "".join(" ".join(map(str, r)) + "\n" for r in HAMMING)
    rc, zeta_out = _cli_file(["zeta", "{file}"], text)
    zeta_op = {"cmd": "zeta", "known_fault": False}
    zeta_exp = {"q": 2, "n": 8, "k": 4, "dist": W8, "dual_dist": W8, "rows": HAMMING}
    refs.check_report(zeta_op, zeta_exp, rc, zeta_out)

    op, exp = workloads._curve_zeta_op(5, [-2, 3], False)
    rc2, cz_out = _cli(op["argv"])
    refs.check_report(op, exp, rc2, cz_out)

    def count(rep):
        rep["distribution"][4] += 1

    def coeff(rep):
        rep["zeta"]["coefficients"][1] = "3/5"

    def holds(rep):
        rep["rh"]["holds"] = not rep["rh"]["holds"]

    ops = [zeta_op, zeta_op, zeta_op, op, op]
    expects = [zeta_exp, zeta_exp, zeta_exp, exp, exp]
    outs = [zeta_out, _corrupt(zeta_out, count), _corrupt(zeta_out, coeff),
            cz_out, _corrupt(cz_out, holds)]
    runner = worker.Runner(None, ops)
    runner.outcomes = {(i, 0, out): i for i, out in enumerate(outs)}
    verdicts = worker.verify(runner, expects)
    assert [v is None for v in (verdicts[i] for i in range(5))] == [True, False, False, True, False]
    passes = [(1, [1] * 5, [0, 1, 2, 3, 4])] * 2
    attempted, failed, unexpected, ok_times = worker.tally(passes, verdicts, ops)
    assert (attempted, failed, len(ok_times)) == (10, 6, 4)
    assert unexpected


def test_repeated_factor_family_fails_and_nothing_else_can():
    """Every seeded curve-zeta input has distinct factors and passes the
    float verdict; the fixed repeated-factor inputs fail it."""
    from zetacode import ag

    for q, g in workloads.CURVE_ZETA_SHAPES:
        bound = math.isqrt(4 * q - 1)
        for traces in itertools.combinations(range(-bound, bound + 1), g):
            z = ag.zeta_from_point_counts(q, g, refs.point_counts(q, refs.weil_numerator(q, traces)))
            assert ag.curve_rh(z).holds, (q, traces)
    for q, traces in workloads.REPEATED_FACTOR:
        z = ag.zeta_from_point_counts(q, len(traces), refs.point_counts(q, refs.weil_numerator(q, traces)))
        assert not ag.curve_rh(z).holds, (q, traces)
    # elliptic curves: the numerator 1 - aT + qT^2 with a^2 < 4q
    for q in workloads.CURVE_FIELDS:
        for a in range(-math.isqrt(4 * q - 1), math.isqrt(4 * q - 1) + 1):
            assert ag.curve_rh(ag.zeta_from_point_counts(q, 1, [q + 1 - a])).holds, (q, a)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    a = workloads.build(workload, 5)
    assert a == workloads.build(workload, 5)
    assert a != workloads.build(workload, 6)


def test_host_clock_scales_by_the_nearby_probes():
    clock = hostclock.HostClock()
    # a host at reference speed for 10 s, then twice as slow
    clock.at = [0.5 * i for i in range(40)]
    clock.ns = [hostclock.REF_NS if t < 10 else 2 * hostclock.REF_NS for t in clock.at]
    assert clock.scale(3.0, 3.2) == 1.0
    assert clock.scale(15.0, 15.4) == 0.5
    assert clock.scale(50.0, 51.0) == 0.5  # past the last probe: the nearest
    assert hostclock.probe() > 0
