"""Zeta polynomials of codes and virtual enumerators.

Two independent constructions are provided: expansion of the enumerator in
the triangular basis of MDS enumerators, and the solve of the lower
triangular moment system from the generating-function characterization.
Both produce the same exact rational coefficients for every admissible
input; tests lean on that redundancy, so neither calls the other's
kernel.  Both run on integer numerators over one common denominator: the
basis is inverted in closed form, as a binomial transform by pairwise
sums (``_mds_basis_coordinates``), and the moment system is solved with
entries generated by a recurrence (``_moment_sums``); a ``Fraction`` is
made only for each coefficient returned.

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
from operator import add

import numpy as np

from .enumerator import WeightEnumerator, _over_one_denominator, macwilliams_substitute

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
        """P(t) for a rational t = x/y: Horner over the integer numerators
        c_j of the coefficients over one denominator D, as
        sum_j c_j x^j y^(r-j) / (D y^r)."""
        t = Fraction(t)
        x, y = t.numerator, t.denominator
        nums, den = _over_one_denominator((c.numerator, c.denominator) for c in self.coeffs)
        acc, y_pow = 0, 1
        for c in reversed(nums):
            acc = acc * x + c * y_pow
            y_pow *= y
        return Fraction(acc, den * (y_pow // y))

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
    if d_dual is None:
        raise ValueError(
            "the enumerator's MacWilliams transform has no positive support, "
            "so no zeta polynomial exists"
        )
    if d_dual < 2:
        raise ValueError(
            "the enumerator's MacWilliams transform has a weight-one term "
            "(dual distance 1), so no zeta polynomial exists"
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


def _mds_basis_coordinates(u: list[int], d: int, q: int) -> list[int]:
    """p_0 .. p_(n-d) with u_j = sum_i p_(i-d) s_j(i) for j = d..n, where
    ``u`` holds u_d .. u_n and s_j(i) are the MDS weights of ``_mds_coeffs``
    divided by C(n, j)(q-1).

    s_j(i) = sum_m (-1)^m C(j-1, m) q^(j-i-m) makes u_1 .. u_n (zero below
    d) the inverse binomial transform of Q_t = [T^t] P(T)/(1 - qT) shifted
    by d, so Q_(w+1-d) = sum_l C(w, l) u_(l+1): after w passes of pairwise
    sums the leading entry is Q_(w+1-d).  While w < d - 1 the zeros ahead
    of u_d only pass its leading entry on, so ``row`` holds from u_d on.
    Then p_t = Q_t - q Q_(t-1).
    """
    row = u
    for _ in range(d - 1):
        row = [row[0], *map(add, row, row[1:])]
    big_q = []
    for _ in u:
        big_q.append(row[0])
        row = [*map(add, row, row[1:])]
    return [x - q * prev for x, prev in zip(big_q, [0] + big_q)]


def zeta_from_mds_basis(
    enum: WeightEnumerator, q: int, dimension: int | None = None
) -> ZetaPolynomial:
    """Expand the enumerator in the MDS basis M_{n,d}, M_{n,d+1}, ...

    Column j is divided by C(n, j)(q-1), so that u_j = f_j / (C(n, j)(q-1))
    are numerators over one denominator, and ``_mds_basis_coordinates``
    inverts the basis in closed form.  The x^n residue is carried by the
    constant basis element.
    """
    d, d_dual, k = _source_parameters(enum, q, dimension)
    n = enum.n
    f = enum.coeffs
    (f0, *u), den = _over_one_denominator(
        [(f[0].numerator, f[0].denominator)]
        + [(f[j].numerator, f[j].denominator * comb(n, j) * (q - 1)) for j in range(d, n + 1)]
    )
    p = _mds_basis_coordinates(u, d, q)
    # the x^n slot, the degree-(n+1-d) basis element
    a = [Fraction(x, den) for x in p + [f0 - sum(p)]]
    return _finish(enum, q, d, d_dual, k, a)


def _moment_sums(big_n: int, top: int, q: int) -> list[int]:
    """c_0(N) .. c_top(N), c_t(N) = sum_i (1 + q + ... + q^(t-i)) (-1)^i C(N, i),
    generated as c_0 = 1, c_t = q c_(t-1) + (-1)^t C(N-1, t)."""
    c = [1]
    for t in range(1, top + 1):
        term = comb(big_n - 1, t)
        c.append(q * c[-1] + (-term if t % 2 else term))
    return c


def zeta_from_chinen(
    enum: WeightEnumerator, q: int, dimension: int | None = None
) -> ZetaPolynomial:
    """Solve the triangular generating-function system for P(T).

    The coefficients satisfy, for l = n-d down to 0,

        sum_s b_{n-d-s, l} a_s = A_{n-l} / (q - 1),

    with b_{j,l} = sum_{i=l}^{j} (1 + q + ... + q^(j-i)) (-1)^(i-l) C(n,i) C(i,l)
    = C(n, l) c_{j-l}(n - l) by C(n,i) C(i,l) = C(n,l) C(n-l, i-l).  The
    diagonal is C(n, l), so

        a_{s*} = A_{n-l} / ((q - 1) C(n, l)) - sum_{s < s*} c_{s*-s}(n - l) a_s,

    s* = n - d - l, pins a_0 first and then each higher coefficient in
    turn, on integer numerators over one denominator.
    """
    d, d_dual, k = _source_parameters(enum, q, dimension)
    n = enum.n
    f = enum.coeffs
    rhs, den = _over_one_denominator(
        (f[n - l].numerator, f[n - l].denominator * (q - 1) * comb(n, l))
        for l in range(n - d, -1, -1)
    )
    a: list[int] = []
    for s_star, x in enumerate(rhs):
        c = _moment_sums(d + s_star, s_star, q)
        a.append(x - sum(c[s_star - s] * a_s for s, a_s in enumerate(a) if a_s))
    return _finish(enum, q, d, d_dual, k, [Fraction(x, den) for x in a])


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


def functional_equation_holds(q: int, coeffs, sign: int = 1) -> bool:
    """Whether a_(2g-i) = sign q^(g-i) a_i for i = 0..g, where the tuple
    a_0, ..., a_(2g) has odd length 2g + 1.

    sign = 1 is the functional equation of a curve zeta numerator and of
    the zeta polynomial of a formally self-dual code; sign = -1 is its
    sign-flipped form, which formal weight enumerators satisfy.
    """
    if len(coeffs) % 2 == 0:
        return False
    g = (len(coeffs) - 1) // 2
    return all(coeffs[2 * g - i] == sign * q ** (g - i) * coeffs[i] for i in range(g + 1))


def self_reciprocal_check(p: ZetaPolynomial) -> bool:
    """a_j = q^(j-g) a_(2g-j) for all j: P(T/sqrt q) is self-reciprocal.

    Holds for the zeta polynomial of any formally self-dual source.
    """
    return p.degree == 2 * p.g and functional_equation_holds(p.q, p.coeffs, 1)


def anti_self_reciprocal_check(p: ZetaPolynomial) -> bool:
    """a_j = -q^(j-g) a_(2g-j) for all j: the sign-flipped functional equation.

    Holds for enumerators that the binary transform negates.
    """
    return p.degree == 2 * p.g and functional_equation_holds(p.q, p.coeffs, -1)


def roots_on_circle_verdict(coeffs, q: int, tol: float = 1e-8) -> RhVerdict:
    """Locate the roots of a polynomial and test |root| sqrt(q) = 1.

    ``coeffs`` is the ascending coefficient sequence (exact rationals or
    ints); a degree-0 polynomial holds vacuously.  Roots come from the
    eigenvalues of the companion matrix of the monic normalization, each
    polished by one Newton step.  A coefficient, or its ratio to the
    leading one, that a float cannot hold is a ValueError naming it.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be a positive finite number, got {tol}")
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

