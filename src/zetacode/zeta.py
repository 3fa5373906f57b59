"""Zeta polynomials of codes and virtual enumerators.

Two independent constructions are provided: expansion of the enumerator in
the triangular basis of MDS enumerators, and the solve of the lower
triangular moment system from the generating-function characterization.
Both produce the same exact rational coefficients for every admissible
input; tests lean on that redundancy.

Degenerate inputs, meaning the transform side has a weight-one term
(d_dual = 1), are refused: puncture the code first (see
``linear_code.puncture_degenerate``), which removes forced-zero
coordinates without changing the enumerator shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .enumerator import (
    WeightEnumerator,
    _mds_coeffs,
    macwilliams_substitute,
)

_F0 = Fraction(0)


@dataclass(frozen=True)
class ZetaPolynomial:
    """P(T) = a_0 + a_1 T + ... + a_r T^r with its source parameters.

    r = g + g_dual = n + 2 - d - d_dual, and P(1) = 1 exactly, for every
    polynomial built from an enumerator with f_0 = 1.
    """

    coeffs: tuple[Fraction, ...]
    q: int
    n: int
    d: int
    d_dual: int
    g: int
    g_dual: int

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, t) -> Fraction:
        t = Fraction(t)
        return sum((c * t**j for j, c in enumerate(self.coeffs)), start=_F0)

    def at_zero(self) -> Fraction:
        return self.coeffs[0]

    def derivative_at_zero(self) -> Fraction:
        return self.coeffs[1] if self.degree >= 1 else _F0


@dataclass(frozen=True)
class RhVerdict:
    """Outcome of a root-location check against the circle |T| = 1/sqrt(q).

    ``max_deviation`` is max over roots of | |T| sqrt(q) - 1 |, and
    ``residuals`` the normalized values of the monic polynomial at each
    computed root (large residuals flag an ill-conditioned cluster; the
    verdict is still returned).
    """

    holds: bool
    roots: tuple[complex, ...]
    max_deviation: float
    tolerance: float
    residuals: tuple[float, ...]

    @property
    def ill_conditioned(self) -> bool:
        return any(r > 1e-6 for r in self.residuals)


def _infer_dimension(enum: WeightEnumerator, q: int) -> int:
    """k with F(1,1) = q^k; falls back to n/2 for sign-alternating inputs."""
    total = enum.total()
    if total > 0 and total.denominator == 1:
        t, k = total.numerator, 0
        while t % q == 0:
            t //= q
            k += 1
        if t == 1:
            return k
    if enum.n % 2 == 0:
        return enum.n // 2
    raise ValueError(
        "cannot infer a dimension from the enumerator; pass dimension= explicitly"
    )


def _source_parameters(enum: WeightEnumerator, q: int, dimension: int | None):
    d = enum.min_distance
    if d is None:
        raise ValueError("enumerator has no positive support; no zeta polynomial")
    d_dual = macwilliams_substitute(enum, q).min_distance
    if d_dual is None or d_dual < 2:
        raise ValueError(
            "degenerate enumerator (transform has a weight-one term); "
            "puncture the code first (puncture_degenerate)"
        )
    k = _infer_dimension(enum, q) if dimension is None else int(dimension)
    return d, d_dual, k


def _finish(enum, q, d, d_dual, k, a: list[Fraction]) -> ZetaPolynomial:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    n = enum.n
    r = n + 2 - d - d_dual
    if len(a) - 1 != r:
        raise RuntimeError(
            f"zeta degree {len(a) - 1} differs from n + 2 - d - d_dual = {r}"
        )
    g = n + 1 - k - d
    return ZetaPolynomial(
        coeffs=tuple(a), q=q, n=n, d=d, d_dual=d_dual, g=g, g_dual=r - g
    )


def zeta_from_mds_basis(
    enum: WeightEnumerator, q: int, dimension: int | None = None
) -> ZetaPolynomial:
    """Expand the enumerator in the MDS basis M_{n,d}, M_{n,d+1}, ...

    Triangular elimination: the basis element with lowest support index i
    cancels the lowest unmatched coefficient, and any final x^n residue is
    carried by the constant basis element.  The remainder must vanish
    exactly.
    """
    d, d_dual, k = _source_parameters(enum, q, dimension)
    n = enum.n
    work = list(enum.coeffs)
    a: list[Fraction] = []
    for i in range(d, n + 1):
        lead = Fraction(comb(n, i) * (q - 1))
        coeff = work[i] / lead
        a.append(coeff)
        if coeff:
            row = _mds_coeffs(n, i, q)
            for j in range(n + 1):
                if row[j]:
                    work[j] -= coeff * row[j]
    a.append(work[0])  # multiplies x^n, the degree-(n+1-d) basis slot
    work[0] = _F0
    if any(work):
        raise ValueError("nonzero remainder: input is not an enumerator of its declared shape")
    return _finish(enum, q, d, d_dual, k, a)


def _chinen_matrix(n: int, d: int, q: int) -> list[list[int]]:
    """Integer coefficients b[j][l] of the triangular moment system.

    b_{j,l} = sum_{i=l}^{j} (1 + q + ... + q^(j-i)) (-1)^(i-l) C(n,i) C(i,l)
    for 0 <= l <= j <= n - d; the diagonal entries are C(n, l).
    """
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


def zeta_from_chinen(
    enum: WeightEnumerator, q: int, dimension: int | None = None
) -> ZetaPolynomial:
    """Solve the triangular generating-function system for P(T).

    The coefficients satisfy, for l = n-d down to 0,

        sum_s b_{n-d-s, l} a_s = A_{n-l} / (q - 1),

    which pins a_0 first (against the diagonal entry C(n, n-d) = C(n, d))
    and then each higher coefficient in turn.
    """
    d, d_dual, k = _source_parameters(enum, q, dimension)
    n = enum.n
    b = _chinen_matrix(n, d, q)
    size = n - d + 1
    a: list[Fraction] = [_F0] * size
    for l in range(n - d, -1, -1):
        s_star = n - d - l
        rhs = enum.coeffs[n - l] / (q - 1)
        acc = _F0
        for s in range(s_star):
            blk = b[n - d - s][l]
            if blk and a[s]:
                acc += blk * a[s]
        a[s_star] = (rhs - acc) / comb(n, l)
    return _finish(enum, q, d, d_dual, k, a)


def functional_dual(p: ZetaPolynomial) -> ZetaPolynomial:
    """The zeta polynomial of the transform side: q^g T^r P(1/(qT))."""
    r = p.degree
    qf = Fraction(p.q)
    coeffs = tuple(qf ** (p.g - (r - j)) * p.coeffs[r - j] for j in range(r + 1))
    return ZetaPolynomial(
        coeffs=coeffs,
        q=p.q,
        n=p.n,
        d=p.d_dual,
        d_dual=p.d,
        g=p.g_dual,
        g_dual=p.g,
    )


def _reciprocal_holds(p: ZetaPolynomial, sign: int) -> bool:
    g = p.g
    if p.degree != 2 * g or p.g != p.g_dual:
        return False
    qf = Fraction(p.q)
    a = p.coeffs
    return all(a[j] == sign * qf ** (j - g) * a[2 * g - j] for j in range(2 * g + 1))


def self_reciprocal_check(p: ZetaPolynomial) -> bool:
    """a_j = q^(j-g) a_(2g-j) for all j: P(T/sqrt q) is self-reciprocal.

    Holds for the zeta polynomial of any formally self-dual source.
    """
    return _reciprocal_holds(p, +1)


def anti_self_reciprocal_check(p: ZetaPolynomial) -> bool:
    """a_j = -q^(j-g) a_(2g-j) for all j: the sign-flipped functional equation.

    Holds for enumerators that the binary transform negates.
    """
    return _reciprocal_holds(p, -1)


def roots_on_circle_verdict(coeffs, q: int, tol: float = 1e-8) -> RhVerdict:
    """Locate the roots of a polynomial and test |root| sqrt(q) = 1.

    ``coeffs`` is the ascending coefficient sequence (exact rationals or
    ints); a degree-0 polynomial holds vacuously.  Roots come from the
    eigenvalues of the companion matrix of the monic normalization, each
    polished by one Newton step.  A coefficient, or its ratio to the
    leading one, that a float cannot hold is a ValueError naming it.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    c = []
    for j, x in enumerate(coeffs):
        try:
            c.append(float(x))
        except OverflowError:
            raise ValueError(f"the coefficient of T^{j} is outside float range") from None
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    r = len(c) - 1
    if r == 0:
        return RhVerdict(True, (), 0.0, tol, ())
    monic = [ci / c[-1] for ci in c]  # ascending, monic[-1] == 1
    for j, m in enumerate(monic):
        if math.isinf(m):
            raise ValueError(
                f"the coefficient of T^{j} divided by the leading one is outside float range"
            )
    companion = np.zeros((r, r), dtype=float)
    companion[0, :] = [-monic[r - 1 - j] for j in range(r)]
    for i in range(1, r):
        companion[i, i - 1] = 1.0
    roots = np.linalg.eigvals(companion)

    desc = monic[::-1]
    deriv = [desc[i] * (r - i) for i in range(r)]

    def _horner(cs, x):
        acc = 0j
        for ci in cs:
            acc = acc * x + ci
        return acc

    polished = []
    for x in roots:
        x = complex(x)
        dp = _horner(deriv, x)
        if abs(dp) > 1e-30:
            x = x - _horner(desc, x) / dp
        polished.append(x)
    polished.sort(key=lambda z: (z.real, z.imag))

    sq = math.sqrt(q)
    devs = [abs(abs(z) * sq - 1.0) for z in polished]
    scale = max(1.0, max(abs(z) for z in polished)) ** r
    residuals = tuple(abs(_horner(desc, z)) / scale for z in polished)
    max_dev = max(devs)
    return RhVerdict(max_dev <= tol, tuple(polished), max_dev, tol, residuals)


def riemann_hypothesis(p: ZetaPolynomial, tol: float = 1e-8) -> RhVerdict:
    """Whether every zero of P(T) lies on the circle |T| = 1/sqrt(q).

    Not assumed, only measured: plenty of codes fail it.
    """
    return roots_on_circle_verdict(p.coeffs, p.q, tol)


def corollary_ad_check(p: ZetaPolynomial, enum: WeightEnumerator) -> bool:
    """Exact low-order consistency between P(T) and the enumerator.

    Checks P(0) = A_d / ((q-1) C(n,d)) and
    A_(d+1) / (q-1) = C(n, d+1) (P(0)(q - d) + P'(0)).
    """
    n, q = enum.n, p.q
    d = enum.min_distance
    if d is None:
        return False
    a_d = enum.coeffs[d]
    a_d1 = enum.coeffs[d + 1] if d + 1 <= n else _F0
    if p.at_zero() != a_d / ((q - 1) * comb(n, d)):
        return False
    rhs = comb(n, d + 1) * (p.at_zero() * (q - d) + p.derivative_at_zero())
    return a_d1 / (q - 1) == rhs


def min_distance_from_roots(
    p: ZetaPolynomial, enum: WeightEnumerator
) -> tuple[Fraction, Fraction]:
    """(d_exact, d_bound) from the zeta zeros and the two leading counts.

    The sum of inverse zeros is the exact coefficient ratio -a_1/a_0, so
    d_bound = q + a_1/a_0 needs no numerics; d_exact subtracts the
    (A_(d+1)/A_d) correction and reproduces d itself.
    """
    d = enum.min_distance
    if d is None or enum.coeffs[d] == 0:
        raise ValueError("A_d = 0: the distance formula is undefined")
    if p.degree >= 1 and p.coeffs[0] == 0:
        raise ValueError("P(0) = 0: inverse zeta zeros are unbounded")
    inv_root_sum = -p.coeffs[1] / p.coeffs[0] if p.degree >= 1 else _F0
    d_bound = p.q - inv_root_sum
    a_d1 = enum.coeffs[d + 1] if d + 1 <= enum.n else _F0
    if enum.n == d:
        correction = _F0
    else:
        correction = (a_d1 / enum.coeffs[d]) * Fraction(d + 1, enum.n - d)
    return d_bound - correction, d_bound


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def rh_payload(verdict: RhVerdict) -> dict:
    """JSON-ready RH verdict, every float as a 17-digit string."""
    return {
        "holds": verdict.holds,
        "tolerance": _fmt_float(verdict.tolerance),
        "max_deviation": _fmt_float(verdict.max_deviation),
        "roots": [
            {"re": _fmt_float(z.real), "im": _fmt_float(z.imag)}
            for z in verdict.roots
        ],
        "residuals": [_fmt_float(r) for r in verdict.residuals],
    }


def zeta_report(p: ZetaPolynomial, tol: float = 1e-8) -> dict:
    """JSON-ready summary: exact coefficients, parameters, and RH verdict."""
    verdict = riemann_hypothesis(p, tol)
    return {
        "coefficients": [str(c) for c in p.coeffs],
        "degree": p.degree,
        "q": p.q,
        "n": p.n,
        "d": p.d,
        "d_dual": p.d_dual,
        "g": p.g,
        "g_dual": p.g_dual,
        "p_at_one": str(p.evaluate(1)),
        "p_at_one_is_one": p.evaluate(1) == 1,
        "rh": rh_payload(verdict),
    }
