"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is either a hand-checked constant or is
recomputed by an independent oracle inside the test.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from zetacode.gf import GF
from zetacode.linear_code import (
    LinearCode,
    Matrix,
    dual,
    is_formally_self_dual,
    is_self_dual,
    weight_distribution,
)
from zetacode.enumerator import (
    from_distribution,
    macwilliams_dual,
    mds_enumerator,
)
from zetacode.zeta import (
    anti_self_reciprocal_check,
    corollary_ad_check,
    functional_dual,
    riemann_hypothesis,
    zeta_from_chinen,
    zeta_from_mds_basis,
)
from zetacode.classify import classify, extremal_bound, formal_checks, is_formal_weight_enumerator, w8, w12
from zetacode.ag import (
    CurvePoint,
    Divisor,
    EllipticCurve,
    add_points,
    bl_bounds,
    bl_coefficients,
    curve_rh,
    elliptic_code,
    elliptic_distribution_from_amin,
    fiber_counts,
    grs_code,
    negate_point,
    points,
    zeta_from_point_counts,
)
from zetacode.cli import main

from conftest import build_corpus

I2 = [[1, 1]]
TETRA = [[1, 1, 1, 0], [0, 1, 2, 1]]
HAMMING8 = [
    [1, 0, 0, 0, 0, 1, 1, 1],
    [0, 1, 0, 0, 1, 0, 1, 1],
    [0, 0, 1, 0, 1, 1, 0, 1],
    [0, 0, 0, 1, 1, 1, 1, 0],
]
FSD10 = [
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
    [1, 0, 0, 0, 1, 1, 1, 0, 0, 0],
    [0, 1, 0, 0, 1, 1, 0, 1, 0, 0],
    [0, 0, 1, 0, 1, 0, 1, 0, 1, 0],
]

ELLIPTIC_CORPUS = [
    (2, [0, 0, 1, 0, 0]),
    (2, [0, 0, 1, 1, 0]),
    (3, [0, 0, 0, 1, 0]),
    (3, [0, 0, 0, 2, 1]),
    (5, [0, 0, 0, 1, 1]),
    (5, [0, 0, 0, 4, 0]),
    (7, [0, 0, 0, 0, 2]),
    (7, [0, 0, 0, 1, 0]),
]


def code(q, rows) -> LinearCode:
    return LinearCode(Matrix.from_indices(GF(q), rows))


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def shared_corpus() -> list[LinearCode]:
    # >= 200 random codes over q in {2,3,4,5,7,8,9}, q^k and q^(n-k) <= 2^20
    codes = build_corpus(seed=2024, per_q=30, max_words=2**14)
    extra = build_corpus(seed=515, per_q=2, max_words=2**20)
    return codes + extra


def test_criterion_1_reference_examples_exact():
    t0 = time.monotonic()
    ok_i2 = weight_distribution(code(2, I2)).counts == (1, 0, 1)
    ok_tetra = weight_distribution(code(3, TETRA)).counts == (1, 0, 0, 8, 0)
    c10 = code(2, FSD10)
    d10 = dual(c10)
    expected = (1, 0, 0, 0, 15, 0, 15, 0, 0, 0, 1)
    ok_10 = (
        weight_distribution(c10).counts == expected
        and weight_distribution(d10).counts == expected
        and not is_self_dual(c10)
        and is_formally_self_dual(c10)
    )
    elapsed = time.monotonic() - t0
    verdict(
        1,
        ok_i2 and ok_tetra and ok_10 and elapsed < 1.0,
        f"repetition, tetra and [10,5] examples exact in {elapsed:.3f}s",
    )


def test_criterion_2_extended_hamming_zeta():
    t0 = time.monotonic()
    c = code(2, HAMMING8)
    enum = from_distribution(weight_distribution(c))
    expected = (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
    p1 = zeta_from_mds_basis(enum, 2)
    p2 = zeta_from_chinen(enum, 2)
    ok_coeffs = p1.coeffs == expected and p2.coeffs == expected
    v = riemann_hypothesis(p1)
    roots = sorted(v.roots, key=lambda z: z.imag)
    ok_roots = (
        len(roots) == 2
        and abs(roots[0] - complex(-0.5, -0.5)) < 1e-12
        and abs(roots[1] - complex(-0.5, 0.5)) < 1e-12
        and v.max_deviation < 1e-10
        and v.holds
    )
    elapsed = time.monotonic() - t0
    verdict(
        2,
        ok_coeffs and ok_roots and elapsed < 1.0,
        f"both algorithms give (1+2T+2T^2)/5, roots (-1+-i)/2 on circle, in {elapsed:.3f}s",
    )


def test_criterion_3_macwilliams_oracle_sweep(shared_corpus):
    t0 = time.monotonic()
    budget = 2**21
    checked = 0
    for c in shared_corpus:
        q = c.spec.q
        d = dual(c)
        lhs = macwilliams_dual(from_distribution(weight_distribution(c, budget)), q, c.k)
        if d.is_zero:
            ok = [int(x) for x in lhs.coeffs] == [1] + [0] * c.n
        else:
            rhs = from_distribution(weight_distribution(d, budget))
            ok = lhs.coeffs == rhs.coeffs
        assert ok, f"MacWilliams mismatch on [{c.n},{c.k}]_{q}"
        checked += 1
    elapsed = time.monotonic() - t0
    verdict(
        3,
        checked >= 200 and elapsed < 120.0,
        f"transform = brute-force dual distribution on {checked} codes in {elapsed:.1f}s",
    )


def test_criterion_4_duursma_theorem_suite(shared_corpus):
    budget = 2**21
    checked = 0
    for c in shared_corpus:
        q = c.spec.q
        dc = dual(c)
        if dc.is_zero:
            continue
        wd = weight_distribution(c, budget)
        wdd = weight_distribution(dc, budget)
        d = wd.min_distance
        d_dual = wdd.min_distance
        if d_dual is None or d_dual < 2:
            continue  # degenerate
        enum = from_distribution(wd)
        p = zeta_from_mds_basis(enum, q, dimension=c.k)
        p_chinen = zeta_from_chinen(enum, q, dimension=c.k)
        assert p.coeffs == p_chinen.coeffs
        assert p.degree == c.n + 2 - d - d_dual
        assert p.evaluate(1) == 1
        assert corollary_ad_check(p, enum)
        if d >= 2:
            enum_dual = from_distribution(wdd)
            p_dual = zeta_from_mds_basis(enum_dual, q, dimension=dc.k)
            assert functional_dual(p).coeffs == p_dual.coeffs
        checked += 1
    verdict(4, checked >= 100, f"degree, P(1)=1, functional equation and corollary exact on {checked} codes")


def test_criterion_5_mds_suite():
    checked = 0
    rng = random.Random(99)
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = GF(q)
        kmax = max(1, int(20 / math.log2(q)))
        for k in range(1, min(q, kmax + 1)):
            mults = [1 + rng.randrange(q - 1) for _ in range(q)]
            c = grs_code(spec, range(q), mults, k)
            wd = weight_distribution(c)
            assert wd.min_distance == q - k + 1, f"[{q},{k}] GRS not MDS"
            if k == 1:  # d = n: the repetition distribution, outside the basis op
                expected = [1] + [0] * (q - 1) + [q - 1]
            else:
                expected = [int(x) for x in mds_enumerator(q, q - k + 1, q).coeffs]
            assert list(wd.counts) == expected
            p = zeta_from_mds_basis(from_distribution(wd), q, dimension=k)
            assert p.coeffs == (1,)
            checked += 1
        if q >= 5:  # proper subsets of the evaluation points
            alphas = list(range(q - 2))
            c = grs_code(spec, alphas, [1] * len(alphas), 2)
            wd = weight_distribution(c)
            n = len(alphas)
            assert wd.min_distance == n - 1
            assert list(wd.counts) == [
                int(x) for x in mds_enumerator(n, n - 1, q).coeffs
            ]
            checked += 1
    verdict(5, checked >= 20, f"{checked} GRS codes: d = n-k+1, closed-form counts, P(T) = 1")


def test_criterion_6_gleason_pierce_and_formal():
    rep = classify(w8(), 2)
    ok_w8 = (
        rep.type_label == "II"
        and rep.extremal
        and rep.d_bound == 4
        and rep.b_max == 4
    )
    ok_bounds = (
        extremal_bound("I", 8) == 4
        and extremal_bound("III", 12) == 6
        and extremal_bound("IV", 6) == 4
    )
    enum12 = w12()
    ok_formal = is_formal_weight_enumerator(enum12)
    fr = formal_checks(enum12)
    ok_extremal = fr.d_bound == 4 and fr.extremal
    # exact sign-flipped functional equation of the zeta coefficients
    g = fr.zeta.g
    a = fr.zeta.coeffs
    ok_anti = (
        anti_self_reciprocal_check(fr.zeta)
        and all(a[j] == -Fraction(2) ** (j - g) * a[2 * g - j] for j in range(2 * g + 1))
    )
    rh_reported = isinstance(fr.rh.holds, bool) and len(fr.rh.roots) == fr.zeta.degree
    verdict(
        6,
        ok_w8 and ok_bounds and ok_formal and ok_extremal and ok_anti and rh_reported,
        f"w8 type II extremal; bounds 4/6/4; w12 formal, extremal, anti-FE exact; "
        f"rh verdict reported (holds={fr.rh.holds}, max_dev={fr.rh.max_deviation:.2e})",
    )


def test_criterion_7_elliptic_suite():
    t0 = time.monotonic()
    curves_checked = 0
    codes_checked = 0
    nonmds_checked = 0
    fiber_checked = 0
    for q, coeffs in ELLIPTIC_CORPUS:
        e = EllipticCurve.from_indices(GF(q), coeffs)
        pts = points(e)
        n1 = len(pts)
        o = CurvePoint.infinity()
        for p in pts:
            assert add_points(e, p, o) == p
            assert add_points(e, p, negate_point(e, p)) == o
        for pa, pb in itertools.product(pts, repeat=2):
            assert add_points(e, pa, pb) == add_points(e, pb, pa)
        for pa, pb, pc in itertools.product(pts, repeat=3):
            assert add_points(e, add_points(e, pa, pb), pc) == add_points(
                e, pa, add_points(e, pb, pc)
            )
        z = zeta_from_point_counts(q, 1, [n1])
        assert curve_rh(z, 1e-8).holds
        curves_checked += 1

        n = n1 - 1
        kmax = {2: 6, 3: 5, 5: 4, 7: 3}[q]
        for k in range(1, n):
            if q**k > 2**18:
                break
            c = elliptic_code(e, k)
            wd = weight_distribution(c)
            d = wd.min_distance
            assert c.k == k
            assert d in (n - k, n - k + 1)
            codes_checked += 1
            if d == n - k and k >= 1:
                rec = elliptic_distribution_from_amin(n, k, q, wd.counts[d])
                assert rec == wd
                nonmds_checked += 1
            if 2 <= k <= kmax:
                g_div = Divisor.of({o: k})
                got = fiber_counts(e, g_div, pts[1:])
                assert list(got) == [wd.counts[n - i] for i in range(k + 1)]
                fiber_checked += 1
    elapsed = time.monotonic() - t0
    verdict(
        7,
        curves_checked >= 5
        and nonmds_checked >= 3
        and fiber_checked >= 6
        and elapsed < 300.0,
        f"{curves_checked} curves: group axioms, curve RH, code parameters; "
        f"{nonmds_checked} recursions and {fiber_checked} fiber counts exact, in {elapsed:.1f}s",
    )


def test_criterion_8_bl_suite():
    checked = 0
    # genus 0: every GRS code, everything exact
    for q in (3, 5, 7):
        spec = GF(q)
        for k in range(1, min(q, 5)):
            c = grs_code(spec, range(q), [1] * q, k)
            wd = weight_distribution(c)
            m = k - 1
            values = bl_coefficients(wd, m)
            bounds = bl_bounds(q, m, 0, q)
            for v, (lo, hi) in zip(values, bounds):
                assert lo == hi == v
            checked += 1
    # genus 1: exact up to m - 1, interval at the top index
    for q, coeffs in ELLIPTIC_CORPUS:
        e = EllipticCurve.from_indices(GF(q), coeffs)
        n = len(points(e)) - 1
        for k in (2, 3, 4):
            if k >= n or q**k > 2**18:
                continue
            wd = weight_distribution(elliptic_code(e, k))
            values = bl_coefficients(wd, k)
            bounds = bl_bounds(n, k, 1, q)
            for l, (v, (lo, hi)) in enumerate(zip(values, bounds)):
                assert lo <= v <= hi, f"B_{l} = {v} outside [{lo}, {hi}]"
                if l <= k - 1:
                    assert lo == hi == v
            checked += 1
    verdict(8, checked >= 20, f"moment coefficients exact/in-bounds for {checked} AG codes")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    ham = tmp_path / "hamming.txt"
    ham.write_text("2 8 4\n1 0 0 0 0 1 1 1\n0 1 0 0 1 0 1 1\n0 0 1 0 1 1 0 1\n0 0 0 1 1 1 1 0\n")
    tetra = tmp_path / "tetra.txt"
    tetra.write_text("3 4 2\n1 1 1 0\n0 1 2 1\n")
    curve = tmp_path / "curve.txt"
    curve.write_text("5 0 0 0 1 1\n")
    w8f = tmp_path / "w8.txt"
    w8f.write_text("8 1 0 0 0 14 0 0 0 1\n")
    invocations = [
        ["wdist", str(ham)],
        ["dual", str(ham)],
        ["zeta", str(ham)],
        ["zeta", str(tetra)],
        ["rh", "--q", "2", "1/5", "2/5", "2/5"],
        ["classify", str(w8f), "2"],
        ["mds", "4", "3", "3"],
        ["grs", "--q", "5", "--k", "2"],
        ["elliptic", str(curve), "2"],
        ["curve-zeta", "--q", "5", "--genus", "1", "9"],
    ]
    ok = True
    for argv in invocations:
        rc1 = main(argv)
        out1 = capsys.readouterr().out
        rc2 = main(argv)
        out2 = capsys.readouterr().out
        ok = ok and rc1 == rc2 == 0 and out1 == out2 and out1
        json.loads(out1)  # valid JSON as well
    verdict(9, bool(ok), f"{len(invocations)} CLI invocations byte-identical across repeated runs")
