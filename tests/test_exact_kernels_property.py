"""Property tests of the Kronecker MacWilliams transform, the closed-form
MDS expansion and the integer self-duality and total checks against the
Fraction reference oracles, and of the integer-numerator representation
that every exact polynomial is held in."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from test_exact_kernels import (
    reference_substitute,
    reference_zeta_chinen,
    reference_zeta_mds_basis,
)

from zetacode.cli import _rationals
from zetacode.enumerator import (
    WeightEnumerator,
    _mds_coeffs,
    _substitute,
    is_virtually_self_dual,
    macwilliams_dual,
)
from zetacode.gf import MAX_ORDER
from zetacode.zeta import ZetaPolynomial, functional_dual, zeta_from_chinen, zeta_from_mds_basis

MAX_N = 120


def _is_prime_power(x: int) -> bool:
    p = next(p for p in range(2, x + 1) if x % p == 0)
    while x % p == 0:
        x //= p
    return x == 1


PRIME_POWERS = [x for x in range(2, MAX_ORDER + 1) if _is_prime_power(x)]

qs = st.sampled_from(PRIME_POWERS)
coefficients = st.one_of(
    st.just(0),
    st.integers(-(10**6), 10**6),
    st.integers(-(2**200), 2**200),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
)
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def enumerators(draw) -> WeightEnumerator:
    """Dense up to n = 24, past that at most 6 nonzero coefficients (the
    reference expands each one as an O(n^2) convolution); f_0 is any of
    them, and n = 0 and the all-zero enumerator are both drawn."""
    n = draw(st.integers(0, MAX_N))
    if n <= 24:
        coeffs = draw(st.lists(coefficients, min_size=n + 1, max_size=n + 1))
    else:
        coeffs = [0] * (n + 1)
        for i in draw(st.sets(st.integers(0, n), max_size=6)):
            coeffs[i] = draw(coefficients)
    return WeightEnumerator(n, tuple(coeffs))


@st.composite
def virtual_enumerators(draw) -> tuple[WeightEnumerator, int]:
    """(enumerator, q): a rational combination of a few MDS basis elements
    over GF(q), so that the expansion is admissible at every length up to
    120, or that plus a multiple of x^n, which makes the dual distance 1;
    or, up to n = 24, any dense enumerator, which mostly is not admissible."""
    q = draw(qs)
    if draw(st.integers(0, 3)) == 0:
        return draw(enumerators().filter(lambda e: e.n <= 24)), q
    n = draw(st.integers(1, MAX_N))
    coeffs = [Fraction(draw(coefficients) if draw(st.integers(0, 3)) == 0 else 0)]
    coeffs += [Fraction(0)] * n
    for d in draw(st.sets(st.integers(1, n), min_size=1, max_size=4)):
        a = draw(coefficients.filter(bool))
        for j, m in enumerate(_mds_coeffs(n, d, q)):
            coeffs[j] += a * m
    return WeightEnumerator(n, tuple(coeffs)), q


def _outcome(fn, *args):
    """The coefficients a zeta algorithm returns, or the message it raises."""
    try:
        return fn(*args).coeffs
    except ValueError as exc:
        return str(exc)


@SETTINGS
@given(enumerators(), qs)
def test_substitute_matches_reference(e, q):
    assert _substitute(e, q).coeffs == reference_substitute(e, q)


@SETTINGS
@given(
    virtual_enumerators(),
    # inferring the dimension fails on most virtual enumerators of odd length
    st.one_of(st.none(), st.integers(0, MAX_N), st.integers(0, MAX_N)),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)
def test_zeta_from_mds_basis_matches_reference(e_q, dimension, t):
    e, q = e_q
    got = _outcome(zeta_from_mds_basis, e, q, dimension)
    assert got == _outcome(reference_zeta_mds_basis, e, q, dimension)
    if isinstance(got, tuple):
        assert zeta_from_mds_basis(e, q, dimension).evaluate(t) == sum(
            (c * t**j for j, c in enumerate(got)), start=Fraction(0)
        )


@st.composite
def self_duality_cases(draw) -> tuple[WeightEnumerator, int, int]:
    """(enumerator of even length up to 24, q, sign): F itself, or
    G = q^(n/2) F + sign F(x + (q-1)y, x - y), which the substitution maps
    to sign q^(n/2) G, with one coefficient moved by 1 half of the time."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 27]))
    sign = draw(st.sampled_from([1, -1]))
    n = 2 * draw(st.integers(0, 12))
    f = draw(st.lists(coefficients, min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):
        sub = reference_substitute(WeightEnumerator(n, tuple(f)), q)
        f = [q ** (n // 2) * a + sign * b for a, b in zip(f, sub)]
        if draw(st.booleans()):
            f[draw(st.integers(0, n))] += 1
    return WeightEnumerator(n, tuple(f)), q, sign


@SETTINGS
@given(self_duality_cases())
def test_is_virtually_self_dual_matches_fraction_form(case):
    e, q, sign = case
    scale = sign * q ** (e.n // 2)
    want = all(scale * c == s for c, s in zip(e.coeffs, reference_substitute(e, q)))
    assert is_virtually_self_dual(e, q, sign) is want


@SETTINGS
@given(enumerators())
def test_total_matches_fraction_sum(e):
    got = e.total()
    assert type(got) is Fraction and got == sum(e.coeffs, start=Fraction(0))


# -- the representation: integer numerators over one denominator ---------------------


def _in_lowest_terms(x) -> bool:
    return type(x.den) is int and x.den > 0 and gcd(x.den, *x.nums) == 1


@st.composite
def coefficient_pairs(draw) -> tuple[list, list]:
    """(a, b): mixed int and Fraction coefficients, and b the same values
    with each one's type switched at random (an integral Fraction for an
    int and back), and, half of the time, one value moved by 1/7 or its
    length changed by a trailing zero."""
    a = draw(st.lists(coefficients, min_size=1, max_size=30))
    b = [
        Fraction(c) if draw(st.booleans()) else (int(c) if Fraction(c).denominator == 1 else c)
        for c in a
    ]
    change = draw(st.integers(0, 3))
    if change == 1:
        i = draw(st.integers(0, len(b) - 1))
        b[i] = Fraction(b[i]) + Fraction(1, 7)
    elif change == 2:
        b.append(0)
    return a, b


@SETTINGS
@given(coefficient_pairs())
def test_representation_is_lowest_terms_with_the_fraction_meaning(pair):
    a, b = pair
    fa, fb = tuple(map(Fraction, a)), tuple(map(Fraction, b))
    ea, eb = WeightEnumerator(len(a) - 1, a), WeightEnumerator(len(b) - 1, b)
    za, zb = (ZetaPolynomial(c, q=3, n=7, d=2, d_dual=3, g=4, g_dual=0) for c in (a, b))
    for x, f in ((ea, fa), (eb, fb), (za, fa), (zb, fb)):
        assert _in_lowest_terms(x)
        assert x.coeffs == f and all(type(c) is Fraction for c in x.coeffs)
        assert all(type(v) is int for v in x.nums)
        assert _rationals(x) == [str(c) for c in f]
    assert (ea == eb) is (za == zb) is (fa == fb)
    if fa == fb:
        assert hash(ea) == hash(eb) and hash(za) == hash(zb)
        assert repr(ea) == repr(eb) and repr(za) == repr(zb)


def _reference_functional_dual(p) -> tuple[Fraction, ...]:
    """q^(g - (r - j)) a_(r-j), the T^j coefficient of q^g T^r P(1/(qT))."""
    r = p.degree
    return tuple(Fraction(p.q) ** (p.g - (r - j)) * p.coeffs[r - j] for j in range(r + 1))


def _polynomial_or_message(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@SETTINGS
@given(enumerators(), qs, st.integers(0, MAX_N))
def test_macwilliams_dual_stays_in_lowest_terms_and_matches_reference(e, q, k):
    k %= e.n + 1
    dual = macwilliams_dual(e, q, k)
    assert _in_lowest_terms(dual)
    assert dual.coeffs == tuple(c / q**k for c in reference_substitute(e, q))


@SETTINGS
@given(virtual_enumerators(), st.one_of(st.none(), st.integers(0, MAX_N)))
def test_zeta_outputs_stay_in_lowest_terms_and_match_references(e_q, dimension):
    e, q = e_q
    # the Fraction Chinen solve is cubic in n; past 40 the MDS one stands for it
    pairs = [(zeta_from_mds_basis, reference_zeta_mds_basis)]
    if e.n <= 40:
        pairs.append((zeta_from_chinen, reference_zeta_chinen))
    for algorithm, reference in pairs:
        got = _polynomial_or_message(algorithm, e, q, dimension)
        want = _polynomial_or_message(reference, e, q, dimension)
        assert type(got) is type(want)
        if isinstance(got, str):
            assert got == want
            continue
        assert _in_lowest_terms(got) and got.coeffs == want.coeffs and got == want
        flipped = functional_dual(got)
        assert _in_lowest_terms(flipped)
        assert flipped.coeffs == _reference_functional_dual(got)
