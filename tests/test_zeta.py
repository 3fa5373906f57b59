from __future__ import annotations

import math
from fractions import Fraction

import pytest

from zetacode.gf import GF
from zetacode.enumerator import (
    WeightEnumerator,
    from_distribution,
    mds_enumerator,
)
from zetacode.linear_code import (
    LinearCode,
    Matrix,
    dual,
    min_distance,
    puncture_degenerate,
    weight_distribution,
)
from zetacode.zeta import (
    ZetaPolynomial,
    anti_self_reciprocal_check,
    corollary_ad_check,
    functional_dual,
    min_distance_from_roots,
    riemann_hypothesis,
    roots_on_circle_verdict,
    self_reciprocal_check,
    zeta_from_chinen,
    zeta_from_mds_basis,
)
from zetacode import cli

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


def code_enum(q, rows):
    c = LinearCode(Matrix.from_indices(GF(q), rows))
    return c, from_distribution(weight_distribution(c))


@pytest.fixture(scope="module")
def hamming_zeta():
    _, e = code_enum(2, HAMMING8)
    return zeta_from_mds_basis(e, 2), e


# -- the two constructions ----------------------------------------------------


def test_hamming_zeta_both_algorithms(hamming_zeta):
    p, e = hamming_zeta
    expected = (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
    assert p.coeffs == expected
    assert zeta_from_chinen(e, 2).coeffs == expected
    assert (p.g, p.g_dual, p.d, p.d_dual) == (1, 1, 4, 4)


def test_mds_zeta_is_one():
    _, tetra = code_enum(3, [[1, 1, 1, 0], [0, 1, 2, 1]])
    assert zeta_from_mds_basis(tetra, 3).coeffs == (1,)
    assert zeta_from_chinen(tetra, 3).coeffs == (1,)
    _, i2 = code_enum(2, [[1, 1]])
    assert zeta_from_mds_basis(i2, 2).coeffs == (1,)
    m53 = mds_enumerator(5, 3, 4)
    assert zeta_from_chinen(m53, 4).coeffs == (1,)


def test_formally_self_dual_10(hamming_zeta):
    c, e = code_enum(2, FSD10)
    p1 = zeta_from_mds_basis(e, 2)
    p2 = zeta_from_chinen(e, 2)
    assert p1.coeffs == p2.coeffs
    assert p1.degree == 4
    assert p1.evaluate(1) == 1
    assert self_reciprocal_check(p1)


def test_cross_algorithm_equality_on_corpus(unit_corpus):
    for c in unit_corpus:
        e = from_distribution(weight_distribution(c))
        try:
            p1 = zeta_from_mds_basis(e, c.spec.q, dimension=c.k)
        except ValueError:
            continue
        p2 = zeta_from_chinen(e, c.spec.q, dimension=c.k)
        assert p1.coeffs == p2.coeffs


def test_duursma_properties_on_corpus(unit_corpus):
    for c in unit_corpus:
        q = c.spec.q
        e = from_distribution(weight_distribution(c))
        d = e.min_distance
        dc = dual(c)
        if dc.is_zero:
            continue
        d_dual = min_distance(dc)
        if d_dual < 2 or d is None:
            continue
        p = zeta_from_mds_basis(e, q, dimension=c.k)
        assert p.degree == c.n + 2 - d - d_dual
        assert p.evaluate(1) == 1
        assert corollary_ad_check(p, e)
        if d >= 2:
            e_dual = from_distribution(weight_distribution(dc))
            p_dual = zeta_from_mds_basis(e_dual, q, dimension=dc.k)
            assert functional_dual(p).coeffs == p_dual.coeffs


# -- functional equation --------------------------------------------------------


def test_functional_dual_trivial():
    p = ZetaPolynomial((Fraction(1),), q=3, n=4, d=3, d_dual=3, g=0, g_dual=0)
    assert functional_dual(p).coeffs == (1,)


def test_functional_dual_self_dual_fixed_point(hamming_zeta):
    p, _ = hamming_zeta
    assert functional_dual(p).coeffs == p.coeffs


def test_functional_dual_root_multiset(hamming_zeta):
    p, _ = hamming_zeta
    roots = riemann_hypothesis(p).roots
    dual_roots = riemann_hypothesis(functional_dual(p)).roots
    expected = sorted((1 / (p.q * z) for z in roots), key=lambda z: (z.real, z.imag))
    for a, b in zip(expected, dual_roots):
        assert abs(a - b) < 1e-9


def test_self_reciprocal_examples(hamming_zeta):
    p, _ = hamming_zeta
    assert self_reciprocal_check(p)
    skew = ZetaPolynomial(
        (Fraction(1, 4), Fraction(3, 4)), q=2, n=3, d=1, d_dual=3, g=1, g_dual=0
    )
    assert not self_reciprocal_check(skew)
    assert not anti_self_reciprocal_check(p)


# -- root-circle verdicts ----------------------------------------------------------


def test_rh_hamming_roots(hamming_zeta):
    p, _ = hamming_zeta
    v = riemann_hypothesis(p)
    assert v.holds
    assert v.max_deviation < 1e-10
    assert len(v.roots) == 2
    got = sorted(v.roots, key=lambda z: z.imag)
    assert abs(got[0] - complex(-0.5, -0.5)) < 1e-12
    assert abs(got[1] - complex(-0.5, 0.5)) < 1e-12


def test_rh_degree_zero_vacuous():
    p = ZetaPolynomial((Fraction(1),), q=5, n=4, d=4, d_dual=4, g=0, g_dual=0)
    v = riemann_hypothesis(p)
    assert v.holds and v.roots == () and v.max_deviation == 0.0


def test_rh_fails_off_circle():
    # -2(1 - 2T)(1 - T/2) = -2 + 5T - 2T^2, normalized so P(1) = 1
    v = roots_on_circle_verdict((-2, 5, -2), 2, 1e-8)
    assert not v.holds
    roots = sorted(z.real for z in v.roots)
    assert abs(roots[0] - 0.5) < 1e-12 and abs(roots[1] - 2.0) < 1e-12
    assert v.max_deviation > 0.4


def test_rh_counts_roots_with_degree(unit_corpus):
    for c in unit_corpus[:10]:
        e = from_distribution(weight_distribution(c))
        try:
            p = zeta_from_mds_basis(e, c.spec.q, dimension=c.k)
        except ValueError:
            continue
        assert len(riemann_hypothesis(p).roots) == p.degree


def test_rh_tolerance_validated(hamming_zeta):
    p, _ = hamming_zeta
    for tol in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
            riemann_hypothesis(p, tol=tol)


def test_rh_residual_diagnostics(hamming_zeta):
    p, _ = hamming_zeta
    v = riemann_hypothesis(p)
    assert len(v.residuals) == len(v.roots)
    assert max(v.residuals) <= 1e-6


# -- corollary and distance-from-roots ------------------------------------------------


def test_corollary_ad_hamming(hamming_zeta):
    p, e = hamming_zeta
    assert p.at_zero() == Fraction(1, 5)
    assert corollary_ad_check(p, e)


def test_corollary_ad_mds():
    tetra = mds_enumerator(4, 3, 3)
    p = zeta_from_mds_basis(tetra, 3)
    assert p.at_zero() == 1
    assert corollary_ad_check(p, tetra)
    # A_d = C(n, d)(q - 1)
    assert tetra.coeffs[3] == 8 == 2 * math.comb(4, 3)


def test_min_distance_from_roots_hamming(hamming_zeta):
    p, e = hamming_zeta
    d_exact, d_bound = min_distance_from_roots(p, e)
    assert d_exact == 4
    assert d_bound == 4  # q + a1/a0 = 2 + 2


def test_min_distance_from_roots_mds():
    tetra = mds_enumerator(4, 3, 3)
    p = zeta_from_mds_basis(tetra, 3)
    d_exact, d_bound = min_distance_from_roots(p, tetra)
    assert d_bound == 3
    assert d_exact == 3


def test_min_distance_bound_on_corpus(unit_corpus):
    for c in unit_corpus[:15]:
        e = from_distribution(weight_distribution(c))
        try:
            p = zeta_from_mds_basis(e, c.spec.q, dimension=c.k)
        except ValueError:
            continue
        if p.coeffs[0] == 0:
            continue
        d_exact, d_bound = min_distance_from_roots(p, e)
        assert d_exact == e.min_distance
        assert d_exact <= d_bound


# -- degeneracy -------------------------------------------------------------------


def test_degenerate_input_refused_and_puncture_fixes_it():
    c = LinearCode(Matrix.from_indices(GF(2), [[1, 1, 0]]))
    e = from_distribution(weight_distribution(c))
    message = r"MacWilliams transform has a weight-one term \(dual distance 1\)"
    with pytest.raises(ValueError, match=message):
        zeta_from_mds_basis(e, 2)
    with pytest.raises(ValueError, match=message):
        zeta_from_chinen(e, 2)
    p = puncture_degenerate(c)
    ep = from_distribution(weight_distribution(p))
    assert zeta_from_mds_basis(ep, 2).coeffs == (1,)


# -- report ------------------------------------------------------------------------


def test_zeta_report_fields(hamming_zeta):
    p, _ = hamming_zeta
    rep = cli._zeta_block(p, riemann_hypothesis(p))
    assert rep["coefficients"] == ["1/5", "2/5", "2/5"]
    assert rep["degree"] == 2
    assert rep["p_at_one_is_one"] is True
    assert rep["rh"]["holds"] is True
    assert len(rep["rh"]["roots"]) == 2
    assert all(set(r) == {"re", "im"} for r in rep["rh"]["roots"])
