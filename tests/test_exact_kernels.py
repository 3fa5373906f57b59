"""The integer MacWilliams, MDS and zeta kernels against the Fraction
algorithms they replaced, kept here as reference oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from zetacode import zeta
from zetacode.classify import w8, w12
from zetacode.enumerator import (
    WeightEnumerator,
    _mds_coeffs,
    _substitute,
    from_distribution,
    mds_enumerator,
)
from zetacode.linear_code import dual, weight_distribution
from zetacode.zeta import zeta_from_chinen, zeta_from_mds_basis

_F0 = Fraction(0)


# -- reference oracles: the Fraction algorithms ------------------------------------


def _convolve(u, v):
    out = [_F0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    out[i + j] += ui * vj
    return out


def reference_substitute(enum: WeightEnumerator, q: int) -> tuple[Fraction, ...]:
    """F(x + (q-1)y, x - y) by expanding every term as a convolution."""
    n = enum.n
    out = [_F0] * (n + 1)
    for i, fi in enumerate(enum.coeffs):
        if not fi:
            continue
        u = [Fraction(comb(n - i, a) * (q - 1) ** a) for a in range(n - i + 1)]
        v = [Fraction(comb(i, b) * (-1) ** b) for b in range(i + 1)]
        for j, wj in enumerate(_convolve(u, v)):
            out[j] += fi * wj
    return tuple(out)


def reference_mds_coeffs(n: int, d: int, q: int) -> tuple[Fraction, ...]:
    """The MDS closed form, each coefficient summed on its own."""
    if d == n + 1:
        return tuple([Fraction(1)] + [_F0] * n)
    out = [_F0] * (n + 1)
    out[0] = Fraction(1)
    for i in range(d, n + 1):
        s = sum(comb(i - 1, m) * (-1) ** m * q ** (i - d - m) for m in range(i - d + 1))
        out[i] = Fraction(comb(n, i) * (q - 1) * s)
    return tuple(out)


def reference_zeta_mds_basis(enum, q, dimension=None):
    """Triangular elimination against freshly built MDS rows."""
    d, d_dual, k = zeta._source_parameters(enum, q, dimension)
    n = enum.n
    work = list(enum.coeffs)
    a = []
    for i in range(d, n + 1):
        coeff = work[i] / Fraction(comb(n, i) * (q - 1))
        a.append(coeff)
        if coeff:
            row = reference_mds_coeffs(n, i, q)
            for j in range(n + 1):
                if row[j]:
                    work[j] -= coeff * row[j]
    a.append(work[0])
    work[0] = _F0
    assert not any(work)
    return zeta._finish(enum, q, d, d_dual, k, a)


def reference_chinen_matrix(n: int, d: int, q: int) -> list[list[int]]:
    """b[j][l] = sum_{i=l}^{j} (1 + q + ... + q^(j-i)) (-1)^(i-l) C(n,i) C(i,l)."""
    size = n - d + 1
    b = [[0] * size for _ in range(size)]
    for j in range(size):
        for l in range(j + 1):
            s = 0
            for i in range(l, j + 1):
                geom = (q ** (j - i + 1) - 1) // (q - 1)
                s += geom * (-1) ** (i - l) * comb(n, i) * comb(i, l)
            b[j][l] = s
    return b


def reference_zeta_chinen(enum, q, dimension=None):
    """Forward substitution through the full moment matrix, in Fractions."""
    d, d_dual, k = zeta._source_parameters(enum, q, dimension)
    n = enum.n
    b = reference_chinen_matrix(n, d, q)
    a = [_F0] * (n - d + 1)
    for l in range(n - d, -1, -1):
        s_star = n - d - l
        acc = sum((b[n - d - s][l] * a[s] for s in range(s_star)), start=_F0)
        a[s_star] = (enum.coeffs[n - l] / (q - 1) - acc) / comb(n, l)
    return zeta._finish(enum, q, d, d_dual, k, a)


# -- inputs -------------------------------------------------------------------------


def _enum(coeffs):
    return WeightEnumerator(len(coeffs) - 1, tuple(coeffs))


TETRA = _enum([1, 0, 0, 8, 0])
GOLAY12 = _enum([1, 0, 0, 0, 0, 0, 264, 0, 0, 440, 0, 0, 24])
HEXA = _enum([1, 0, 0, 0, 45, 0, 18])
XY = _enum([1, 0, 1])
Q4_PAIR = _enum([1, 0, 3])


def gleason(family: str, n: int) -> tuple[int, WeightEnumerator]:
    """The benchmark's Gleason enumerators: as many large invariants as fit."""
    if family == "II":
        return 2, w8() ** (n // 8)
    if family == "I":
        b = (n - 2) // 8
        return 2, XY ** ((n - 8 * b) // 2) * w8() ** b
    if family == "III":
        b = (n - 4) // 12
        return 3, TETRA ** ((n - 12 * b) // 4) * GOLAY12**b
    if family == "IV":
        return 4, HEXA ** (n // 6 - 1) * Q4_PAIR**3
    return 2, w8() ** ((n - 12) // 8) * w12()


GLEASON_SHAPES = [
    ("formal", 44), ("III", 48), ("I", 54), ("IV", 60),
    ("II", 64), ("formal", 68), ("I", 76), ("III", 88),
]


def _outcome(fn, *args, **kwargs):
    """The coefficients a zeta algorithm returns, or the error it raises."""
    try:
        return fn(*args, **kwargs).coeffs
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def _random_rational(rng: random.Random) -> Fraction:
    if rng.random() < 0.25:
        return _F0
    return Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))


# -- MacWilliams ----------------------------------------------------------------------


def test_substitute_matches_reference_on_corpus(unit_corpus):
    for c in unit_corpus:
        q = c.spec.q
        for e in (from_distribution(weight_distribution(c)),
                  from_distribution(weight_distribution(dual(c)))):
            assert _substitute(e, q).coeffs == reference_substitute(e, q)


@pytest.mark.parametrize("family,n", GLEASON_SHAPES)
def test_substitute_matches_reference_on_gleason_families(family, n):
    q, e = gleason(family, n)
    assert e.n == n
    for r in sorted({q, 2}):
        assert _substitute(e, r).coeffs == reference_substitute(e, r)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_substitute_matches_reference_on_random_rationals(q):
    rng = random.Random(4000 + q)
    for n in [0, 1, 2, 5, 17, 33, 60]:
        e = _enum([_random_rational(rng) for _ in range(n + 1)])
        assert _substitute(e, q).coeffs == reference_substitute(e, q)


# -- MDS closed form --------------------------------------------------------------------


def test_mds_coeffs_match_reference():
    shapes = [(n, d, q) for q in (2, 3, 4, 7, 9) for n in (1, 2, 5, 12) for d in range(1, n + 2)]
    shapes += [(120, 61, 127), (200, 62, 223), (200, 2, 199), (88, 45, 89), (60, 60, 5)]
    for n, d, q in shapes:
        assert _mds_coeffs(n, d, q) == reference_mds_coeffs(n, d, q)


# -- the two zeta algorithms ------------------------------------------------------------


def _both_against_reference(e, q, dimension=None):
    basis = _outcome(zeta_from_mds_basis, e, q, dimension)
    assert basis == _outcome(reference_zeta_mds_basis, e, q, dimension)
    assert _outcome(zeta_from_chinen, e, q, dimension) == _outcome(
        reference_zeta_chinen, e, q, dimension
    )
    return basis


def test_zeta_matches_reference_on_corpus(unit_corpus):
    admissible = 0
    for c in unit_corpus:
        q = c.spec.q
        e = from_distribution(weight_distribution(c))
        admissible += isinstance(_both_against_reference(e, q, c.k), tuple)
    assert admissible >= 10


@pytest.mark.parametrize("family,n", GLEASON_SHAPES)
def test_zeta_matches_reference_on_gleason_families(family, n):
    q, e = gleason(family, n)
    dimension = n // 2 if family == "formal" else None
    assert isinstance(_both_against_reference(e, q, dimension), tuple)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_zeta_matches_reference_on_random_virtual_enumerators(q):
    """Random rational combinations of MDS enumerators with d_dual >= 2."""
    rng = random.Random(5000 + q)
    for _ in range(6):
        n = rng.randrange(4, 61)
        d = rng.randrange(1, n - 1)
        top = rng.randrange(max(d, 2), n)  # top = 1 would be the full space
        coeffs = [_F0] * (n + 1)
        for i in range(d, top + 1):
            a = _random_rational(rng) if d < i < top else Fraction(rng.randrange(1, 99), 7)
            for j, m in enumerate(reference_mds_coeffs(n, i, q)):
                coeffs[j] += a * m
        e = _enum(coeffs)
        p = _both_against_reference(e, q, n // 2)
        assert isinstance(p, tuple) and len(p) == top - d + 1


@pytest.mark.parametrize("n,d,q", [(12, 5, 4), (40, 20, 41), (88, 45, 89), (120, 61, 127)])
def test_zeta_matches_reference_on_mds_shapes(n, d, q):
    assert _both_against_reference(mds_enumerator(n, d, q), q) == (1,)


def test_chinen_on_a_long_mds_enumerator():
    e = mds_enumerator(200, 30, 7)  # an [200, 171] MDS enumerator over GF(7)
    assert zeta_from_chinen(e, 7).coeffs == (1,)
    assert zeta_from_mds_basis(e, 7).coeffs == (1,)


def test_zeta_algorithms_are_independent(monkeypatch):
    """Each algorithm still answers when the other one's kernel is broken."""
    q, e = gleason("III", 48)
    expected = zeta_from_mds_basis(e, q).coeffs

    def broken(*args):
        raise AssertionError("kernel of the other zeta algorithm called")

    with monkeypatch.context() as m:
        m.setattr(zeta, "_mds_basis_coordinates", broken)
        assert zeta_from_chinen(e, q).coeffs == expected
        with pytest.raises(AssertionError):
            zeta_from_mds_basis(e, q)
    with monkeypatch.context() as m:
        m.setattr(zeta, "_moment_sums", broken)
        assert zeta_from_mds_basis(e, q).coeffs == expected
        with pytest.raises(AssertionError):
            zeta_from_chinen(e, q)
