"""Property tests of the Kronecker MacWilliams transform and the closed-form
MDS expansion against the Fraction reference oracles."""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from test_exact_kernels import reference_substitute, reference_zeta_mds_basis

from zetacode.enumerator import WeightEnumerator, _mds_coeffs, _substitute
from zetacode.gf import MAX_ORDER
from zetacode.zeta import zeta_from_mds_basis

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
