from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zetacode.gf import GF
from zetacode.enumerator import (
    WeightEnumerator,
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
    functional_equation_holds,
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
    return c, weight_distribution(c)


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
        e = weight_distribution(c)
        try:
            p1 = zeta_from_mds_basis(e, c.spec.q, dimension=c.k)
        except ValueError:
            continue
        p2 = zeta_from_chinen(e, c.spec.q, dimension=c.k)
        assert p1.coeffs == p2.coeffs


def test_duursma_properties_on_corpus(unit_corpus):
    for c in unit_corpus:
        q = c.spec.q
        e = weight_distribution(c)
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
            e_dual = weight_distribution(dc)
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


def test_rh_leading_coefficient_that_underflows_is_refused():
    # 1 + 10^-400 T has the root -10^400, but its top coefficient is 0.0 as
    # a float; exact zeros above it still only lower the degree
    for coeffs in ([1, Fraction(1, 10**400)], [1, Fraction(1, 10**400), 0]):
        with pytest.raises(ValueError, match=r"^the coefficient of T\^1 is outside float range$"):
            roots_on_circle_verdict(coeffs, 2)


def test_rh_reads_numerators_over_the_denominator():
    # 1 + (2 + 10^-400) T: its numerators over 10^400 are beyond float
    # range, its coefficients are not, and the root is -1/2 as a float.
    # The root itself is -1/(2 + 10^-400), off the circle |T| = 1/2, so no
    # factor 1 + 2T divides out and the verdict is False
    big = 10**400
    p = ZetaPolynomial((1, Fraction(2 * big + 1, big)), q=4, n=4, d=2, d_dual=4, g=1, g_dual=0)
    assert p.den == big
    v = riemann_hypothesis(p)
    assert not v.holds and v.roots == (-0.5 + 0j,)


def test_rh_fails_off_circle():
    # -2(1 - 2T)(1 - T/2) = -2 + 5T - 2T^2, normalized so P(1) = 1
    v = roots_on_circle_verdict((-2, 5, -2), 2, 1e-8)
    assert not v.holds
    roots = sorted(z.real for z in v.roots)
    assert abs(roots[0] - 0.5) < 1e-12 and abs(roots[1] - 2.0) < 1e-12
    assert v.max_deviation > 0.4
    # 1 + (2 + 10^-8) T^2 and (1 - T + 2T^2)(1 + T + (2 + 10^-9) T^2): roots
    # within the tolerance of the circle but off it; neither polynomial has
    # the functional equation, so the verdict is False with no float
    near = 2 + Fraction(1, 10**9)
    for coeffs in ((1, 0, Fraction(200000001, 100000000)), _poly_mul([1, -1, 2], [1, 1, near])):
        v = roots_on_circle_verdict(coeffs, 2, 1e-8)
        assert not v.holds and 0 < v.max_deviation <= 1e-8


def test_rh_half_degree_closed_form_with_complex_x():
    # (1 + T^2)(1 + 4T^2) has the functional equation for q = 2 and h = 2,
    # and its Chebyshev quadratic has a negative discriminant
    v = roots_on_circle_verdict((1, 0, 5, 0, 4), 2)
    assert len(v.roots) == 4
    for got, want in zip(v.roots, (-1j, -0.5j, 0.5j, 1j)):
        assert abs(got - want) <= 1e-15
    assert not v.holds
    assert abs(v.max_deviation - (math.sqrt(2) - 1)) <= 1e-15


def test_rh_counts_roots_with_degree(unit_corpus):
    for c in unit_corpus[:10]:
        e = weight_distribution(c)
        try:
            p = zeta_from_mds_basis(e, c.spec.q, dimension=c.k)
        except ValueError:
            continue
        assert len(riemann_hypothesis(p).roots) == p.degree


def _reference_roots(coeffs):
    """(polished roots, residuals) as three separate Horner passes: P' then
    P at each eigenvalue for one Newton step, and P at each polished root."""
    c = [float(x) for x in coeffs]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    r = len(c) - 1
    monic = [ci / c[-1] for ci in c]
    companion = np.zeros((r, r), dtype=float)
    companion[0, :] = [-monic[r - 1 - j] for j in range(r)]
    for i in range(1, r):
        companion[i, i - 1] = 1.0
    desc = monic[::-1]
    deriv = [desc[i] * (r - i) for i in range(r)]

    def horner(cs, x):
        acc = 0j
        for ci in cs:
            acc = acc * x + ci
        return acc

    polished = []
    for x in np.linalg.eigvals(companion):
        x = complex(x)
        dp = horner(deriv, x)
        if abs(dp) > 1e-30:
            x = x - horner(desc, x) / dp
        polished.append(x)
    polished.sort(key=lambda z: (z.real, z.imag))
    scale = max(1.0, max(abs(z) for z in polished)) ** r
    return tuple(polished), tuple(abs(horner(desc, z)) / scale for z in polished)


def _poly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _gleason(family, n):
    """(q, enumerator) of the Gleason-type inputs of the transform benchmark
    workload: products of w8, xy, the tetracode, the ternary Golay code,
    the hexacode, x^2 + 3y^2 and the formal w12."""
    w8 = WeightEnumerator(8, (1, 0, 0, 0, 14, 0, 0, 0, 1))
    xy = WeightEnumerator(2, (1, 0, 1))
    tetra = WeightEnumerator(4, (1, 0, 0, 8, 0))
    golay = WeightEnumerator(12, (1, 0, 0, 0, 0, 0, 264, 0, 0, 440, 0, 0, 24))
    hexa = WeightEnumerator(6, (1, 0, 0, 0, 45, 0, 18))
    pair4 = WeightEnumerator(2, (1, 0, 3))
    w12 = WeightEnumerator(12, (1, 0, 0, 0, -33, 0, 0, 0, -33, 0, 0, 0, 1))
    if family == "II":
        return 2, w8 ** (n // 8)
    if family == "I":
        b = (n - 2) // 8
        return 2, xy ** ((n - 8 * b) // 2) * w8**b
    if family == "III":
        b = (n - 4) // 12
        return 3, tetra ** ((n - 12 * b) // 4) * golay**b
    if family == "IV":
        return 4, hexa ** (n // 6 - 1) * pair4**3
    return 2, w8 ** ((n - 12) // 8) * w12


GLEASON_SHAPES = [("formal", 44), ("III", 48), ("I", 54), ("IV", 60),
                  ("II", 64), ("formal", 68), ("I", 76), ("III", 88)]


def _weil_product(q, traces):
    poly = [1]
    for a in traces:
        poly = _poly_mul(poly, [1, -a, q])
    return poly


def _curve_numerators():
    """Products of one to three factors 1 - aT + qT^2 with a^2 <= 4q,
    repeated factors included."""
    for q in (2, 3, 4, 5, 7, 9, 16, 25):
        traces = [a for a in range(-4 * q, 4 * q + 1) if a * a <= 4 * q][:: max(1, q // 3)]
        for size in (1, 2, 3):
            for combo in itertools.islice(itertools.combinations_with_replacement(traces, size), 6):
                yield q, _weil_product(q, combo)


def _random_integer_polynomials(count, seed):
    """(q, ascending coefficients) of ``count`` seeded integer polynomials of
    degree 1-60; every third has one to four integer linear factors, so
    some real roots."""
    rng = random.Random(seed)
    for j in range(count):
        degree = 1 + j % 60
        poly = [rng.choice((-3, -2, -1, 1, 2, 3))]
        if j % 3 == 0:
            for _ in range(min(degree, rng.randint(1, 4))):
                poly = _poly_mul(poly, [rng.randint(1, 3), rng.randint(-3, 3) or 1])
        rest = degree - (len(poly) - 1)
        if rest:
            middle = [rng.randint(-9, 9) for _ in range(rest - 1)]
            poly = _poly_mul(poly, [rng.randint(1, 9), *middle, rng.choice((-5, -1, 1, 2, 7))])
        yield rng.choice((2, 3, 4, 5, 7, 8, 9, 25)), poly


def test_polished_roots_and_residuals_equal_three_pass_reference():
    # the companion path, taken by polynomials without a functional
    # equation: the eight transform Gleason zeta polynomials and the Weil
    # products, each with its leading coefficient doubled, and seeded
    # random integer polynomials, so that listing one root per conjugate
    # pair is pinned beyond those families
    inputs = []
    for family, n in GLEASON_SHAPES:
        q, enum = _gleason(family, n)
        c = zeta_from_mds_basis(enum, q).coeffs
        inputs.append((q, c[:-1] + (2 * c[-1],)))
    assert [len(c) - 1 for _, c in inputs] == [38, 44, 52, 58, 58, 62, 74, 84]
    inputs += [(q, poly[:-1] + [2 * poly[-1]]) for q, poly in _curve_numerators()]
    assert len(inputs) > 100
    randoms = list(_random_integer_polynomials(200, 23))
    assert {len(c) - 1 for _, c in randoms} == set(range(1, 61))
    inputs += randoms
    for q, coeffs in inputs:
        assert not functional_equation_holds(q, coeffs, 1)
        assert not functional_equation_holds(q, coeffs, -1)
        v = roots_on_circle_verdict(coeffs, q)
        roots, residuals = _reference_roots(coeffs)
        assert v.roots == roots and v.residuals == residuals, (q, coeffs)


def _extremal_type_ii(n):
    """The extremal type II enumerator of length n, 8 | n: A_0 = 1 and
    A_4 = ... = A_(4 floor(n/24)) = 0, in Gleason's basis
    g8^((n - 24j)/8) Delta24^j with Delta24 = x^4 y^4 (x^4 - y^4)^4, whose
    j-th element starts at weight 4j with coefficient 1."""
    g8 = WeightEnumerator(8, (1, 0, 0, 0, 14, 0, 0, 0, 1))
    delta24 = [0] * 25
    for k in range(5):
        delta24[4 + 4 * k] = (-1) ** k * math.comb(4, k)
    delta24 = WeightEnumerator(24, tuple(delta24))
    basis = [g8 ** (n // 8)]
    for j in range(1, n // 24 + 1):
        basis.append(delta24**j if n == 24 * j else g8 ** ((n - 24 * j) // 8) * delta24**j)
    coeffs = list(basis[0].coeffs)
    for j, b in enumerate(basis[1:], start=1):
        alpha = -coeffs[4 * j]
        coeffs = [c + alpha * e for c, e in zip(coeffs, b.coeffs)]
    assert coeffs[0] == 1 and not any(coeffs[4 : 4 * (n // 24) + 1])
    return WeightEnumerator(n, tuple(coeffs))


def _functional_equation_input(name):
    """(q, coefficients, whether every root lies on the circle)."""
    family, n = name.split("-")
    if family == "extremal":
        return 2, zeta_from_mds_basis(_extremal_type_ii(int(n)), 2).coeffs, True
    if family == "weil":
        # distinct traces a, a^2 < 4 * 97
        traces = {
            "2": (0, 19), "12": range(-17, 17, 3), "20": range(-19, 20, 2), "39": range(-19, 20)
        }[n]
        assert len(set(traces)) == int(n)
        return 97, _weil_product(97, traces), True
    q, enum = _gleason(family, int(n))
    return q, zeta_from_mds_basis(enum, q).coeffs, False


def _root_error_at_50_digits(coeffs, roots):
    """The largest relative error of ``roots`` against the roots of the
    exact polynomial: each root with imag >= 0 is moved by Newton steps at
    50 digits on the exact coefficients until a step is under 1e-35 of it.
    The roots so found, with the conjugates of the complex ones, must be
    as many as the degree and pairwise apart, so they are all the roots."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        desc = [mpmath.mpf(c.numerator) / c.denominator for c in map(Fraction, reversed(coeffs))]
        tiny = mpmath.mpf(10) ** -35
        found, worst = [], 0.0
        for z in roots:
            if z.imag < 0:
                continue
            x = mpmath.mpc(z)
            for _ in range(40):
                p, dp = mpmath.polyval(desc, x, derivative=True)
                x -= p / dp
                if abs(p / dp) <= tiny * abs(x):
                    break
            else:
                raise AssertionError(f"Newton at 50 digits does not settle near {z}")
            worst = max(worst, float(abs(x - z) / abs(x)))
            found += [x, mpmath.conj(x)] if z.imag > 0 else [x]
        assert len(found) == len(coeffs) - 1
        assert min(abs(a - b) for a, b in itertools.combinations(found, 2)) > 1e-9
    return worst


@pytest.mark.parametrize(
    "name",
    [f"{family}-{n}" for family, n in GLEASON_SHAPES]
    + ["extremal-72", "extremal-96", "extremal-120", "weil-2", "weil-12", "weil-20", "weil-39"],
)
def test_half_degree_roots_match_50_digit_roots(name):
    # weil-2 has the root x = 0 beside x = 19 / (2 sqrt(97)) in closed form;
    # the float Newton step takes the colleague roots from up to 4e-14 to
    # under 4e-15 on these inputs, and the exact one takes the extremal and
    # Weil roots from up to 1e-3 to under 3e-15
    q, coeffs, on_circle = _functional_equation_input(name)
    assert functional_equation_holds(q, coeffs, 1) or functional_equation_holds(q, coeffs, -1)
    v = roots_on_circle_verdict(coeffs, q)
    assert _root_error_at_50_digits(coeffs, v.roots) <= 1e-14
    if on_circle:
        assert v.holds and v.max_deviation <= 1e-15


def test_iii_88_diagnostic_is_the_true_deviation():
    # the companion path printed 1.85 here, with a root 6% off
    q, coeffs, _ = _functional_equation_input("III-88")
    v = roots_on_circle_verdict(coeffs, q)
    assert not v.holds
    assert abs(v.max_deviation - 0.7320508075688772) < 1e-12  # sqrt(3) - 1
    assert max(v.residuals) < 1e-12


def _weil_products():
    """(q, traces, coefficients) for every product of one to three factors
    1 - aT + qT^2 with a^2 <= 4q, repeated factors included."""
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49):
        bound = math.isqrt(4 * q)
        for size in (1, 2, 3):
            for traces in itertools.combinations_with_replacement(range(-bound, bound + 1), size):
                yield q, traces, _weil_product(q, traces)


def test_verdict_on_weil_products_against_the_companion_path():
    """Every input holds by Weil.  None with distinct factors may fail.
    Among those with a repeated factor, the verdict must be right at least
    as often as the companion path (the three-pass reference), so it is
    over all inputs too.  A repeated factor with a^2 < 4q is a double root
    that floats split, so a single call there may go either way."""
    total = correct = companion = 0
    for q, traces, poly in _weil_products():
        total += 1
        holds = roots_on_circle_verdict(poly, q).holds
        if len(set(traces)) == len(traces):
            assert holds, (q, traces)
            continue
        roots, _ = _reference_roots(poly)
        companion += max(abs(abs(z) * math.sqrt(q) - 1.0) for z in roots) <= 1e-8
        correct += holds
    assert total == 15199
    assert correct >= companion


def _circle_factor_products(count, seed):
    """(q, coefficients, roots at +-1/sqrt(q)) of ``count`` seeded products
    of zero to four Weil factors 1 - aT + qT^2 with distinct traces,
    a^2 < 4q, and of (1 - sT)^e (1 + sT)^f, e, f <= 3, when q = s^2, or of
    (1 - qT^2)^m, m <= 3, otherwise."""
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.choice((2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 49))
        bound = math.isqrt(4 * q - 1)
        poly = _weil_product(q, rng.sample(range(-bound, bound + 1), rng.randint(0, 4)))
        s = math.isqrt(q)
        if s * s == q:
            e, f = rng.randint(0, 3), rng.randint(0, 3)
            factors, roots = [[1, -s]] * e + [[1, s]] * f, [1 / s] * e + [-1 / s] * f
        else:
            m = rng.randint(0, 3)
            factors, roots = [[1, 0, -q]] * m, [1 / math.sqrt(q), -1 / math.sqrt(q)] * m
        for factor in factors:
            poly = _poly_mul(poly, factor)
        yield q, poly, roots


def test_verdict_on_circle_factor_products():
    # the roots +-1/sqrt(q) are divided out exactly, whatever their
    # multiplicity and whether or not the whole product has a functional
    # equation, and are listed as the exact floats; the Weil roots have
    # a^2 < 4q, so none of them is real
    inputs = list(_circle_factor_products(400, 28))
    assert sum(len(c) % 2 == 0 for _, c, _ in inputs) > 50
    for q, coeffs, boundary in inputs:
        v = roots_on_circle_verdict(coeffs, q)
        assert v.holds, (q, coeffs)
        real = [z.real for z in v.roots if z.imag == 0]
        assert sorted(real) == sorted(boundary), (q, coeffs)


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


def test_corollary_ad_false_branches(hamming_zeta):
    p, e = hamming_zeta
    # no positive support, so no minimum distance
    assert not corollary_ad_check(p, WeightEnumerator(8, (1,) + (0,) * 8))
    # P(0) = A_d / ((q - 1) C(n, d)) fails while the A_(d+1) identity,
    # 0 = C(8, 5)(-2 P(0) + P'(0)), still holds
    assert p.coeffs[:2] == (Fraction(1, 5), Fraction(2, 5))
    wrong = dataclasses.replace(p, coeffs=(Fraction(1, 4), Fraction(1, 2)) + p.coeffs[2:])
    assert not corollary_ad_check(wrong, e)


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
        e = weight_distribution(c)
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
    e = weight_distribution(c)
    message = r"MacWilliams transform has a weight-one term \(dual distance 1\)"
    with pytest.raises(ValueError, match=message):
        zeta_from_mds_basis(e, 2)
    with pytest.raises(ValueError, match=message):
        zeta_from_chinen(e, 2)
    p = puncture_degenerate(c)
    ep = weight_distribution(p)
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
