"""Zeta polynomials of codes and virtual enumerators.

Two independent constructions are provided: expansion of the enumerator in
the triangular basis of MDS enumerators, and the solve of the lower
triangular moment system from the generating-function characterization.
Both produce the same exact rational coefficients for every admissible
input; tests lean on that redundancy, so neither calls the other's
kernel.  Both run on integer numerators over one common denominator: the
basis is inverted in closed form, as a binomial transform by pairwise
sums (``_mds_basis_coordinates``), and the moment system is solved with
entries generated by a recurrence (``_moment_sums``).  A
``ZetaPolynomial`` holds integer numerators over one denominator, as a
``WeightEnumerator`` does, and every function here reads them directly.

Degenerate inputs, meaning the transform side has a weight-one term
(d_dual = 1), are refused: puncture the code first (see
``linear_code.puncture_degenerate``), which removes forced-zero
coordinates without changing the enumerator shape.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import add

import numpy as np

from .enumerator import WeightEnumerator, _exact, _ExactPolynomial, _over_one_denominator
from .enumerator import macwilliams_substitute
from .gf import check_int

_F0 = Fraction(0)


@dataclass(frozen=True, init=False)
class ZetaPolynomial(_ExactPolynomial):
    """P(T) = a_0 + a_1 T + ... + a_r T^r with its source parameters.

    a_j = nums[j] / den.  r = g + g_dual = n + 2 - d - d_dual, and
    P(1) = 1 exactly, for every polynomial built from an enumerator with
    f_0 = 1.
    """

    nums: tuple[int, ...] = field(init=False)
    den: int = field(init=False)
    q: int
    n: int
    d: int
    d_dual: int
    g: int
    g_dual: int

    def __init__(self, coeffs, q: int, n: int, d: int, d_dual: int, g: int, g_dual: int):
        self._set(*_exact(coeffs), q=q, n=n, d=d, d_dual=d_dual, g=g, g_dual=g_dual)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def evaluate(self, t) -> Fraction:
        """P(t) for a rational t = x/y: Horner over the numerators c_j, as
        sum_j c_j x^j y^(r-j) / (den y^r)."""
        t = Fraction(t)
        x, y = t.numerator, t.denominator
        acc, y_pow = 0, 1
        for c in reversed(self.nums):
            acc = acc * x + c * y_pow
            y_pow *= y
        return Fraction(acc, self.den * (y_pow // y))

    def at_zero(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    def derivative_at_zero(self) -> Fraction:
        return Fraction(self.nums[1], self.den) if self.degree >= 1 else _F0


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
    k = _infer_dimension(enum, q) if dimension is None else check_int(dimension, "dimension")
    return d, d_dual, k


def _finish(enum, q, d, d_dual, k, a: list[int], den: int) -> ZetaPolynomial:
    """P(T) with coefficients a_j / den, after its trailing zeros are dropped."""
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    n = enum.n
    r = n + 2 - d - d_dual
    if len(a) - 1 != r:
        raise RuntimeError(
            f"zeta degree {len(a) - 1} differs from n + 2 - d - d_dual = {r}"
        )
    g = n + 1 - k - d
    return ZetaPolynomial._over(a, den, q=q, n=n, d=d, d_dual=d_dual, g=g, g_dual=r - g)


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

    Column j is divided by C(n, j)(q-1), so that the u_j = f_j / (C(n, j)(q-1))
    are put over one denominator, and ``_mds_basis_coordinates``
    inverts the basis in closed form.  The x^n residue is carried by the
    constant basis element.
    """
    d, d_dual, k = _source_parameters(enum, q, dimension)
    n, f = enum.n, enum.nums
    (f0, *u), den = _over_one_denominator(
        [(f[0], 1)] + [(f[j], comb(n, j) * (q - 1)) for j in range(d, n + 1)]
    )
    p = _mds_basis_coordinates(u, d, q)
    # the x^n slot, the degree-(n+1-d) basis element
    return _finish(enum, q, d, d_dual, k, p + [f0 - sum(p)], den * enum.den)


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
    n, f = enum.n, enum.nums
    rhs, den = _over_one_denominator(
        (f[n - l], (q - 1) * comb(n, l)) for l in range(n - d, -1, -1)
    )
    a: list[int] = []
    for s_star, x in enumerate(rhs):
        c = _moment_sums(d + s_star, s_star, q)
        a.append(x - sum(c[s_star - s] * a_s for s, a_s in enumerate(a) if a_s))
    return _finish(enum, q, d, d_dual, k, a, den * enum.den)


def functional_dual(p: ZetaPolynomial) -> ZetaPolynomial:
    """The zeta polynomial of the transform side: q^g T^r P(1/(qT)), whose
    T^j coefficient q^(g-r+j) a_(r-j) is taken over den q^(-low), with
    low = min(0, g - r) the least power of q that occurs."""
    r = p.degree
    low = min(0, p.g - r)
    nums = [p.q ** (j + p.g - r - low) * a for j, a in enumerate(reversed(p.nums))]
    return ZetaPolynomial._over(
        nums, p.den * p.q**-low, q=p.q, n=p.n, d=p.d_dual, d_dual=p.d, g=p.g_dual, g_dual=p.g
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
    return p.degree == 2 * p.g and functional_equation_holds(p.q, p.nums, 1)


def anti_self_reciprocal_check(p: ZetaPolynomial) -> bool:
    """a_j = -q^(j-g) a_(2g-j) for all j: the sign-flipped functional equation.

    Holds for enumerators that the binary transform negates.
    """
    return p.degree == 2 * p.g and functional_equation_holds(p.q, p.nums, -1)


def _circle_factors(nums: list[int], q: int) -> tuple[list[int], list[complex]]:
    """Divide the factors with a root T = +-1/sqrt(q) exactly out of the
    integer polynomial sum_i nums[i] T^i: the quotient, and those roots
    with multiplicity.  When q = s^2 they are 1 - sT and 1 + sT, otherwise
    1 - qT^2: an integer polynomial with one of the irrational roots
    +-1/sqrt(q) has the other.

    Division by 1 - cT^e runs q_i = nums[i] + c q_(i-e) over every i; the
    factor divides exactly iff the last e of the q_i are 0.
    """
    s = math.isqrt(q)
    if s * s == q:
        factors = [(s, 1, [complex(1 / s)]), (-s, 1, [complex(-1 / s)])]
    else:
        t = 1 / math.sqrt(q)
        factors = [(q, 2, [complex(t), complex(-t)])]
    roots = []
    for c, e, at in factors:
        while True:
            quot = list(nums)
            for i in range(e, len(quot)):
                quot[i] += c * quot[i - e]
            if any(quot[-e:]):
                break
            nums = quot[:-e]
            roots += at
    return nums, roots


# From this many roots on, the half-degree path alone takes its Newton step
# and residuals in one numpy pass over all roots instead of a loop per root
_ROOTS_PER_ARRAY = 9

# The relative error of a root on the circle above which the half-degree
# path refines it in exact arithmetic
_ROOT_TOL = 1e-14


def _horner(cs, x):
    """sum_i cs[i] x^(n-i), cs descending, by Horner in complex arithmetic."""
    acc = 0j
    for ci in cs:
        acc = acc * x + ci
    return acc


def _clenshaw(c, x):
    """f(x) and f'(x) for f = sum_k c_k T_k(x), at a number or at every
    entry of an array: b_k = c_k + 2x b_(k+1) - b_(k+2), f = c_0 + x b_1 - b_2,
    and the same recurrence differentiated."""
    tx = 2 * x
    b1 = b2 = d1 = d2 = 0
    for k in range(len(c) - 1, 0, -1):
        d1, d2 = tx * d1 - d2 + 2 * b1, d1
        b1, b2 = tx * b1 - b2 + c[k], b1
    return c[0] + x * b1 - b2, x * d1 - d2 + b1


def _colleague_roots(c: list[float]) -> tuple[list[complex], list[float]]:
    """The roots with imag >= 0 of sum_k c_k T_k(x), of degree h >= 3, and
    |f'| at each: eigenvalues of the colleague matrix (Good, 1961) in its
    symmetrized and rotated form, each moved by one Newton step.  The
    conjugate of each complex root is a root too."""
    h = len(c) - 1
    mat = np.zeros((h, h))
    mat.flat[1 :: h + 1] = 0.5
    mat.flat[h :: h + 1] = 0.5
    mat[0, 1] = mat[1, 0] = math.sqrt(0.5)
    col = [-0.5 * ck / c[-1] for ck in c[:-1]]
    col[0] *= math.sqrt(2.0)
    mat[:, -1] += col
    xs = [complex(x) for x in np.linalg.eigvals(mat[::-1, ::-1]).tolist() if x.imag >= 0]
    if len(xs) >= _ROOTS_PER_ARRAY:
        x = np.array(xs)
        f, fp = _clenshaw(c, x)
        x = x - np.divide(f, fp, out=np.zeros_like(f), where=abs(fp) > 1e-30)
        return x.tolist(), abs(fp).tolist()
    out, slopes = [], []
    for x in xs:
        f, fp = _clenshaw(c, x)
        out.append(x - f / fp if abs(fp) > 1e-30 else x)
        slopes.append(abs(fp))
    return out, slopes


def _exact_newton(w: list[int], q: int, z: float) -> float:
    """The root near z of R(z) = w_h + sum_m w_(h-m) D_m(z), the Dickson
    polynomials D_0 = 2, D_1 = z, D_m = z D_(m-1) - q D_(m-2): Newton steps
    with R and R' exact at the dyadic z = Z/2^E, each new z rounded once.
    The roots lie in [-2 sqrt(q), 2 sqrt(q)], and once a step moves z by
    under 2^-32 of that the next would move it by less than rounding, as
    Newton converges quadratically; at most 8 steps.

    Clenshaw's b_m = w_(h-m) + z b_(m+1) - q b_(m+2), R = w_h + z b_1 - 2q b_2
    runs on the integers B_m = b_m 2^(E(h-m)), and its derivative
    b'_m = b_(m+1) + z b'_(m+1) - q b'_(m+2), R' = b_1 + z b'_1 - 2q b'_2
    on B'_m = b'_m 2^(E(h-m-1)).
    """
    h = len(w) - 1
    settled = math.sqrt(q) * 2.0**-31
    for _ in range(8):
        num, den = z.as_integer_ratio()
        e = den.bit_length() - 1
        b1 = b2 = d1 = d2 = 0
        for m in range(h, 0, -1):
            d1, d2 = b1 + num * d1 - (q * d2 << 2 * e), d1
            b1, b2 = (w[h - m] << e * (h - m)) + num * b1 - (q * b2 << 2 * e), b1
        r = (w[h] << e * h) + num * b1 - (2 * q * b2 << 2 * e)
        rp = b1 + num * d1 - (2 * q * d2 << 2 * e)
        if rp == 0:
            break
        z, moved = (num * rp - r) / (den * rp), z
        if abs(z - moved) <= settled:
            break
    return z


def _half_degree_roots(nums: list[int], den: int, q: int):
    """The roots of P(T) = sum_i nums[i] T^i / den, which satisfies
    a_(2g-i) = q^(g-i) a_i, as (roots, mirrored): the conjugate of each
    root whose ``mirrored`` flag is set is a root too, not listed.

    With u = sqrt(q) T and b_i = a_i q^(-i/2), u^(-g) P = b_g +
    sum_m b_(g-m) (u^m + u^(-m)), and for x = (u + 1/u)/2,
    u^m + u^(-m) = 2 T_m(x) (the reduction z = qT + 1/T = 2 sqrt(q) x of
    Duursma, "Extremal weight enumerators and ultraspherical polynomials",
    2003).  So the roots are T = (x +- sqrt(x^2 - 1))/sqrt(q) over the
    roots x of the Chebyshev series c_0 = b_g, c_m = 2 b_(g-m) of degree
    h = g: closed forms for h <= 2, the colleague matrix above.  A real x
    in [-1, 1] gives a conjugate pair on the circle |T| = 1/sqrt(q).  In
    z = 2 sqrt(q) x the series times den q^(h/2) is
    R(z) = w_h + sum_m w_(h-m) D_m(z), with w = nums[:h + 1], so a root on
    the circle that floats may place worse than ``_ROOT_TOL`` is refined
    exactly (``_exact_newton``).
    """
    s = math.isqrt(q)
    square = s * s == q
    sigma = float(s) if square else math.sqrt(q)
    w = nums[: len(nums) // 2 + 1]
    # v_i = w_i / (den sigma^i) with sigma^i = q^(i // 2) sigma^(i % 2):
    # rounded once, and once more for odd i when sigma = sqrt(q) is irrational
    v = [wi / (den * q ** (i // 2) * (s if square and i % 2 else 1)) for i, wi in enumerate(w)]
    if not square:
        v[1::2] = [vi / sigma for vi in v[1::2]]
    h = len(w) - 1
    if h == 0:
        xs = []
    elif h == 1:
        xs = [-v[1] / (2 * v[0])]
    elif h == 2:
        # 4 v_0 x^2 + 2 v_1 x + (v_2 - 2 v_0) = 0; a quarter of its
        # discriminant is delta / (den^2 q), delta an exact integer
        delta = w[1] * w[1] - 4 * w[0] * w[2] + 8 * q * w[0] * w[0]
        rt = math.sqrt(abs(delta) / (den * den * q))
        if delta < 0:
            xs = [complex(-v[1], rt) / (4 * v[0])]
        else:
            x1 = (-v[1] - math.copysign(rt, v[1])) / (4 * v[0])
            const = (w[2] - 2 * q * w[0]) / (den * q)  # v_2 - 2 v_0, rounded once
            xs = [x1, const / (4 * v[0] * x1) if x1 else 0.0]
    else:
        c = [v[h]] + [2 * vi for vi in v[h - 1 :: -1]]
        xs, slopes = _colleague_roots(c)
        # f(x) in floats is off by up to about h eps sum |c_k| for |x| <= 1,
        # which moves a root x by that over |f'(x)|, and T by that over
        # sqrt(1 - x^2) relative (dT/dx = T / sqrt(x^2 - 1)): refine such a
        # root exactly
        err = h * math.ulp(1.0) * sum(map(abs, c))
        for i, (x, slope) in enumerate(zip(xs, slopes)):
            if x.imag == 0 and -1 < x.real < 1:
                if err > _ROOT_TOL * slope * math.sqrt((1 - x.real) * (1 + x.real)):
                    xs[i] = _exact_newton(w, q, 2 * sigma * x.real) / (2 * sigma)
    roots, mirrored = [], []
    for x in map(complex, xs):
        wx = cmath.sqrt((x - 1) * (x + 1))
        if x.imag == 0 and -1 <= x.real <= 1:
            roots.append((x + wx) / sigma)
            mirrored.append(True)
        else:
            roots += [(x + wx) / sigma, (x - wx) / sigma]
            mirrored += [x.imag != 0] * 2
    return roots, mirrored


def _companion_roots(monic: list[float]):
    """The roots of the monic polynomial sum_i monic[i] T^i, as (roots,
    mirrored) like ``_half_degree_roots``: the eigenvalues with imag >= 0
    of the companion matrix, each moved by one Newton step.  LAPACK gives
    a real matrix's eigenvalues in exact conjugate pairs, and the Newton
    step at a conjugate gives the conjugate result, so each complex root
    stands for its conjugate too."""
    r = len(monic) - 1
    desc = monic[::-1]
    companion = np.zeros((r, r))
    companion[0] = [-m for m in desc[1:]]
    companion.flat[r :: r + 1] = 1.0
    pairs = list(zip(desc, [desc[i] * (r - i) for i in range(r)]))

    # one Newton step per root: P and P' by Horner in one loop, each
    # accumulator in the operation order of its own pass, in Python
    # complex arithmetic (numpy's complex multiply may round differently)
    roots, mirrored = [], []
    for x in np.linalg.eigvals(companion).tolist():
        if x.imag < 0:
            continue
        mirrored.append(x.imag > 0)
        p = dp = 0j
        for c, dc in pairs:
            p = p * x + c
            dp = dp * x + dc
        if abs(dp) > 1e-30:
            x = x - (p * x + desc[-1]) / dp
        roots.append(x)
    return roots, mirrored


def roots_on_circle_verdict(coeffs, q: int, tol: float = 1e-8, den: int = 1) -> RhVerdict:
    """Locate the roots of a polynomial and test |root| sqrt(q) = 1.

    The ascending coefficients are ``coeffs`` (exact rationals or ints)
    over the positive integer ``den``; each float is one integer over
    another, rounded once.  A degree-0 polynomial holds vacuously.  The
    factors with a root at +-1/sqrt(q) are divided out exactly first
    (``_circle_factors``).  A real polynomial with every root on the
    circle has the conjugate 1/(qT) of each root T as a root, so the
    quotient, with no root at the fixed points +-1/sqrt(q) of T -> 1/(qT),
    has even degree and a_(2g-i) = q^(g-i) a_i.  A quotient with that
    functional equation takes its roots from the half-degree Chebyshev
    problem (``_half_degree_roots``), and ``holds`` is whether they all
    lie within ``tol`` of the circle.  Any other polynomial fails exactly,
    and its roots, from the companion matrix of the monic normalization
    (``_companion_roots``), are diagnostics only.  Both list one root per
    conjugate pair, so each residual is computed once per pair.  A
    coefficient, or its ratio to the leading one, that a float cannot hold
    is a ValueError naming it, and so is a root that overflows the
    residuals.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be a positive finite number, got {tol}")
    nums, lcd = _exact(coeffs)
    den *= lcd
    while len(nums) > 1 and nums[-1] == 0:
        nums.pop()
    c = []
    for j, x in enumerate(nums):
        try:
            c.append(x / den)
        except OverflowError:
            raise ValueError(f"the coefficient of T^{j} is outside float range") from None
    r = len(c) - 1
    if r == 0:
        return RhVerdict(True, (), 0.0, tol, ())
    for j in (r, 0):  # a nonzero end coefficient that rounds to 0
        if nums[j] and c[j] == 0.0:
            raise ValueError(f"the coefficient of T^{j} is outside float range")
    monic = [ci / c[-1] for ci in c]  # ascending, monic[-1] == 1
    for j, m in enumerate(monic):
        if math.isinf(m):
            raise ValueError(
                f"the coefficient of T^{j} divided by the leading one is outside float range"
            )
    desc = monic[::-1]

    core, boundary = _circle_factors(nums, q)
    half = functional_equation_holds(q, core)
    try:
        if half:
            pts, mirrored = _half_degree_roots(core, den, q)
            pts, mirrored = boundary + pts, [False] * len(boundary) + mirrored
        else:
            pts, mirrored = _companion_roots(monic)
        scale = max(1.0, max(map(abs, pts))) ** r
        # each path keeps its own residual arithmetic: they differ in the last bits
        if half and len(pts) >= _ROOTS_PER_ARRAY:
            vals = (np.vander(np.array(pts), r + 1) @ np.array(desc)).tolist()
        else:
            vals = [_horner(desc, z) for z in pts]
        found = [(z, abs(val) / scale) for z, val in zip(pts, vals)]
    except OverflowError:
        # the values of P and P' near a huge root, or its size to the power r
        raise ValueError(f"a root's size to the power {r} is outside float range") from None
    found += [(z.conjugate(), e) for (z, e), m in zip(found, mirrored) if m]
    found.sort(key=lambda p: (p[0].real, p[0].imag))
    roots = tuple(z for z, _ in found)
    sq = math.sqrt(q)
    max_dev = max(abs(abs(z) * sq - 1.0) for z in roots)
    return RhVerdict(half and max_dev <= tol, roots, max_dev, tol, tuple(e for _, e in found))


def riemann_hypothesis(p: ZetaPolynomial, tol: float = 1e-8) -> RhVerdict:
    """Whether every zero of P(T) lies on the circle |T| = 1/sqrt(q).

    Not assumed, only measured: plenty of codes fail it.
    """
    return roots_on_circle_verdict(p.nums, p.q, tol, p.den)


def corollary_ad_check(p: ZetaPolynomial, enum: WeightEnumerator) -> bool:
    """Exact low-order consistency between P(T) and the enumerator.

    Checks P(0) = A_d / ((q-1) C(n,d)) and
    A_(d+1) / (q-1) = C(n, d+1) (P(0)(q - d) + P'(0)).
    """
    n, q = enum.n, p.q
    d = enum.min_distance
    if d is None:
        return False
    a_d = Fraction(enum.nums[d], enum.den)
    a_d1 = Fraction(enum.nums[d + 1], enum.den) if d + 1 <= n else _F0
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
    if d is None or enum.nums[d] == 0:
        raise ValueError("A_d = 0: the distance formula is undefined")
    if p.degree >= 1 and p.nums[0] == 0:
        raise ValueError("P(0) = 0: inverse zeta zeros are unbounded")
    inv_root_sum = -p.derivative_at_zero() / p.at_zero() if p.degree >= 1 else _F0
    d_bound = p.q - inv_root_sum
    a_d1 = enum.nums[d + 1] if d + 1 <= enum.n else 0
    if enum.n == d:
        correction = _F0
    else:
        correction = Fraction(a_d1, enum.nums[d]) * Fraction(d + 1, enum.n - d)
    return d_bound - correction, d_bound

