"""Curves over finite fields (genus 0 and 1) and the codes they produce.

Elliptic curves are kept in long Weierstrass form with the full
characteristic-2/3 group-law formulas, so every small field works.  Weight
statistics of the evaluation codes can be cross-checked three independent
ways: brute-force codeword enumeration (module linear_code), the
binomial-moment equations for [n, k, n-k] elliptic codes, and a count of
effective divisors in a divisor class (``fiber_counts``), which reduces
linear equivalence to the group structure on the rational points.

Effective divisors are counted in closed form, not listed.  By
Riemann-Roch each divisor class of degree k >= 1 on a genus-1 curve holds
(q^k - 1) / (q - 1) of them, and on the projective line the
(q^(k+1) - 1) / (q - 1) of degree k form one class (Duursma, "From weight
enumerators to zeta functions", 2001; Tsfasman, Vladut and Nogin,
"Algebraic Geometric Codes: Basic Notions", 2007).  Only the subsets of D
of size deg G whose points sum to the class of G go through the group law,
so no place of degree 2 or more and no extension field enters, and deg G
is bounded by the budget alone, not by the field-order cap of module gf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

import numpy as np

from .gf import GF, FieldSpec, check_int
from .linear_code import (
    BudgetExceededError,
    LinearCode,
    Matrix,
    WeightDistribution,
)
from .enumerator import solve_macwilliams
from .zeta import RhVerdict, functional_equation_holds, roots_on_circle_verdict

DEFAULT_FIBER_BUDGET = 10**6


# -- points and curves ----------------------------------------------------
#
# Coordinates and coefficients are field element indices (plain ints).
# The group law runs on index pairs (x, y), with None for the point at
# infinity; the public functions check curve membership once, at entry,
# by a lookup in the curve's point set.


@dataclass(frozen=True)
class CurvePoint:
    """A rational point: affine (x, y) or the distinguished point at infinity."""

    x: int | None
    y: int | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("a point has both coordinates or neither (the point at infinity)")

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(None, None)

    @classmethod
    def affine(cls, x: int, y: int) -> "CurvePoint":
        if x is None or y is None:
            raise ValueError("affine points need both coordinates")
        return cls(x, y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def sort_key(self) -> tuple[int, int, int]:
        if self.is_infinity:
            return (0, 0, 0)
        return (1, self.x, self.y)

    def __str__(self) -> str:
        if self.is_infinity:
            return "O"
        return f"{self.x},{self.y}"


@dataclass(frozen=True)
class LinePoint:
    """A rational point of the projective line: an x value or infinity."""

    x: int | None

    @classmethod
    def infinity(cls) -> "LinePoint":
        return cls(None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def sort_key(self) -> tuple[int, int, int]:
        return (0, 0, 0) if self.is_infinity else (1, self.x, 0)

    def __str__(self) -> str:
        return "O" if self.is_infinity else str(self.x)


def _in_field(spec: FieldSpec, *indices) -> bool:
    # plain ints only: a bool, a float or a numpy integer would hash like
    # an index, and numpy reads a bool index as a mask
    try:
        return all(0 <= check_int(i, "index") < spec.q for i in indices)
    except TypeError:
        return False


@dataclass(frozen=True)
class EllipticCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6, nonsingular."""

    spec: FieldSpec
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        for c in self.coefficient_indices():
            if not 0 <= check_int(c, "curve coefficient") < self.spec.q:
                raise ValueError(f"curve coefficient out of range for GF({self.spec.q})")
        if self.discriminant() == 0:
            raise ValueError("singular curve: discriminant is zero")

    @classmethod
    def from_indices(cls, spec: FieldSpec, coeffs) -> "EllipticCurve":
        return cls(spec, *coeffs)

    def coefficient_indices(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def discriminant(self) -> int:
        s = self.spec
        a1, a2, a3, a4, a6 = self.coefficient_indices()
        mul, addi, sub, im = s.mul_idx, s.add_idx, s.sub_idx, s.int_mul_idx
        b2 = addi(mul(a1, a1), im(4, a2))
        b4 = addi(im(2, a4), mul(a1, a3))
        b6 = addi(mul(a3, a3), im(4, a6))
        b8 = sub(
            addi(
                addi(mul(mul(a1, a1), a6), im(4, mul(a2, a6))),
                mul(a2, mul(a3, a3)),
            ),
            addi(mul(a1, mul(a3, a4)), mul(a4, a4)),
        )
        return sub(
            im(9, mul(b2, mul(b4, b6))),
            addi(
                addi(mul(mul(b2, b2), b8), im(8, mul(b4, mul(b4, b4)))),
                im(27, mul(b6, b6)),
            ),
        )

    @cached_property
    def _affine(self) -> dict[tuple[int, int], None]:
        """The affine points as index pairs, keys in lex order, found on
        first read and kept on the instance; not a field, so they take no
        part in equality, hashing or repr."""
        return dict.fromkeys(_affine_point_indices(self.spec, self.coefficient_indices()))

    def contains(self, point) -> bool:
        """Whether ``point`` is a CurvePoint of this curve, with plain int
        coordinates in range."""
        if not isinstance(point, CurvePoint):
            return False
        if point.is_infinity:
            return True
        return _in_field(self.spec, point.x, point.y) and (point.x, point.y) in self._affine


def _affine_point_indices(spec: FieldSpec, coeffs) -> list[tuple[int, int]]:
    """All (x, y) index pairs satisfying the Weierstrass equation, lex order.

    For each x the equation is the quadratic y^2 + b y = c with
    b = a1 x + a3 and c = x^3 + a2 x^2 + a4 x + a6, solved for every x at
    once from one root table of the field.
    """
    a1, a2, a3, a4, a6 = coeffs
    q = spec.q
    tab = spec.tables
    mul, add, neg = tab.mul, tab.add, tab.neg
    xs = np.arange(q)
    x2 = mul[xs, xs]
    b = add[mul[a1, xs], a3]
    c = add[add[mul[x2, xs], mul[a2, x2]], add[mul[a4, xs], a6]]
    root = np.full(q, -1)
    if spec.p != 2:
        # (2y + b)^2 = 4c + b^2; the roots of a nonzero square are +-s
        root[mul[xs, xs]] = xs
        s = root[add[mul[4 % spec.p, c], mul[b, b]]]
        has = s >= 0
        half = int(tab.inv[2])
        y0 = mul[add[s, neg[b]], half]
        y1 = mul[add[neg[s], neg[b]], half]
        two = has & (s != 0)
    else:
        # b != 0: y = b z with z^2 + z = c / b^2, roots z0 and z0 + 1;
        # b == 0: y is the one square root of c
        root[add[mul[xs, xs], xs]] = xs
        z = root[mul[c, tab.inv[mul[b, b]]]]
        sqrt = np.empty(q, dtype=np.int64)
        sqrt[mul[xs, xs]] = xs
        has = (b == 0) | (z >= 0)
        y0 = np.where(b == 0, sqrt[c], mul[b, z])
        y1 = mul[b, z ^ 1]
        two = (b != 0) & has
    ys = np.sort(np.stack([y0, np.where(two, y1, y0)], axis=1), axis=1)
    keep = np.stack([has, two], axis=1)
    return list(zip(np.repeat(xs, 2)[keep.ravel()].tolist(), ys[keep].tolist()))


def points(curve: EllipticCurve) -> list[CurvePoint]:
    """All rational points: infinity first, then affine points in lex order."""
    return [CurvePoint.infinity()] + [CurvePoint(x, y) for x, y in curve._affine]


def _pair(point: CurvePoint) -> tuple[int, int] | None:
    return None if point.is_infinity else (point.x, point.y)


def _point(pair: tuple[int, int] | None) -> CurvePoint:
    return CurvePoint.infinity() if pair is None else CurvePoint(*pair)


def _require_on_curve(curve, point) -> None:
    if not curve.contains(point):
        raise ValueError(f"point {point} is not on the curve")


def _negate(curve: EllipticCurve, pair):
    """-(x, y) = (x, -(y + a1 x + a3)), None being the identity."""
    if pair is None:
        return None
    tab = curve.spec.tables
    add = tab.add.item
    x, y = pair
    return (x, tab.neg.item(add(y, add(tab.mul.item(curve.a1, x), curve.a3))))


def _group_law(curve: EllipticCurve):
    """Chord-and-tangent addition on index pairs, None being the identity.

    The field tables are read once, here; the returned function checks
    nothing, so its arguments must be points of ``curve``.
    """
    s = curve.spec
    tab = s.tables
    add, neg, mul, inv = tab.add.item, tab.neg.item, tab.mul.item, tab.inv.item
    two, three = 2 % s.p, 3 % s.p
    a1, a2, a3, a4, a6 = curve.coefficient_indices()

    def sub(a, b):
        return add(a, neg(b))

    def plus(p1, p2):
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        x1, y1 = p1
        x2, y2 = p2
        if x1 == x2:
            if p2 == _negate(curve, p1):
                return None
            # doubling; the tangent is not vertical, so den != 0
            den = inv(add(mul(two, y1), add(mul(a1, x1), a3)))
            xx = mul(x1, x1)
            lam = mul(sub(add(mul(three, xx), add(mul(two, mul(a2, x1)), a4)), mul(a1, y1)), den)
            nu = mul(sub(add(mul(a4, x1), mul(two, a6)), add(mul(xx, x1), mul(a3, y1))), den)
        else:
            dx = inv(sub(x2, x1))
            lam = mul(sub(y2, y1), dx)
            nu = mul(sub(mul(y1, x2), mul(y2, x1)), dx)
        x3 = sub(sub(add(mul(lam, lam), mul(a1, lam)), a2), add(x1, x2))
        return (x3, neg(add(add(mul(add(lam, a1), x3), nu), a3)))

    return plus


def _multiple(curve: EllipticCurve, plus, m: int, pair):
    """m * pair by double-and-add with ``plus``, the group law of ``curve``."""
    if m < 0:
        m, pair = -m, _negate(curve, pair)
    acc = None
    while m:
        if m & 1:
            acc = plus(acc, pair)
        m >>= 1
        if m:
            pair = plus(pair, pair)
    return acc


def negate_point(curve: EllipticCurve, point: CurvePoint) -> CurvePoint:
    _require_on_curve(curve, point)
    return _point(_negate(curve, _pair(point)))


def add_points(curve: EllipticCurve, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    """Chord-and-tangent addition with identity at infinity."""
    _require_on_curve(curve, p1)
    _require_on_curve(curve, p2)
    return _point(_group_law(curve)(_pair(p1), _pair(p2)))


@dataclass(frozen=True)
class ProjectiveLine:
    """The genus-0 curve; divisor classes are determined by degree alone."""

    spec: FieldSpec

    def points(self) -> list[LinePoint]:
        return [LinePoint.infinity()] + [LinePoint(x) for x in range(self.spec.q)]

    def contains(self, point) -> bool:
        return isinstance(point, LinePoint) and (
            point.is_infinity or _in_field(self.spec, point.x)
        )


# -- divisors -------------------------------------------------------------


@dataclass(frozen=True)
class Divisor:
    """A finite integer combination of points, stored sorted without zeros."""

    entries: tuple[tuple[object, int], ...]

    @classmethod
    def of(cls, items) -> "Divisor":
        """Build from a dict or an iterable of (point, multiplicity) pairs."""
        acc: dict = {}
        pairs = items.items() if isinstance(items, dict) else items
        for point, mult in pairs:
            acc[point] = acc.get(point, 0) + check_int(mult, "multiplicity")
        cleaned = [(p, m) for p, m in acc.items() if m]
        cleaned.sort(key=lambda pm: pm[0].sort_key())
        return cls(tuple(cleaned))

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def support(self) -> tuple:
        return tuple(p for p, _ in self.entries)


# -- curve zeta -----------------------------------------------------------


@dataclass(frozen=True)
class CurveZeta:
    """The numerator polynomial (degree 2g, integer coefficients) of a
    curve zeta function, validated against its functional equation."""

    q: int
    g: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.g < 0:
            raise ValueError(f"genus must be nonnegative, got {self.g}")
        if len(self.coeffs) != 2 * self.g + 1:
            raise ValueError(
                f"numerator of a genus-{self.g} zeta must have degree {2 * self.g}"
            )
        if self.coeffs[0] != 1:
            raise ValueError("curve zeta numerator must have constant term 1")
        if not functional_equation_holds(self.q, self.coeffs):
            raise ValueError(
                f"coefficients violate the functional equation: {self.coeffs}"
            )


def zeta_from_point_counts(q: int, g: int, counts) -> CurveZeta:
    """Recover the zeta numerator from the first g point counts.

    The log of the numerator matches sum_k (N_k - q^k - 1) T^k / k up to
    order g; the remaining coefficients follow from the functional
    equation.  Non-integer intermediate coefficients mean the counts are
    not those of a curve, and raise.
    """
    check_int(q, "field order")
    counts = [check_int(c, "point count") for c in counts]
    if check_int(g, "genus") < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    if len(counts) != g:
        raise ValueError(f"need exactly g = {g} point counts, got {len(counts)}")
    if g == 0:
        return CurveZeta(q, 0, (1,))
    # Newton's identities m l_m = sum_j c_j l_(m-j), with c_j = N_j - q^j - 1
    c = [n - q**j - 1 for j, n in enumerate(counts, start=1)]
    ell = [1]
    for m in range(1, g + 1):
        acc = sum(c[j - 1] * ell[m - j] for j in range(1, m + 1))
        if acc % m:
            raise ValueError(f"inconsistent point counts: coefficient {m} is {Fraction(acc, m)}")
        ell.append(acc // m)
    for i in range(g + 1, 2 * g + 1):
        ell.append(q ** (i - g) * ell[2 * g - i])
    return CurveZeta(q, g, tuple(ell))


def within_hasse_bound(q: int, n1: int) -> bool:
    """|N_1 - q - 1| <= 2 sqrt(q) for a genus-1 curve, tested exactly as
    (N_1 - q - 1)^2 <= 4q."""
    return (n1 - q - 1) ** 2 <= 4 * q


def curve_rh(z: CurveZeta, tol: float = 1e-8) -> RhVerdict:
    """Root-circle check |T| = 1/sqrt(q) for the zeta numerator."""
    return roots_on_circle_verdict(z.coeffs, z.q, tol)


# -- evaluation codes -----------------------------------------------------


def grs_code(spec: FieldSpec, alphas, multipliers, k: int) -> LinearCode:
    """Generalized Reed-Solomon code: rows v_j alpha_j^i, i = 0..k-1."""
    alphas = list(alphas)
    multipliers = list(multipliers)
    n = len(alphas)
    if len(multipliers) != n:
        raise ValueError(f"need {n} column multipliers, got {len(multipliers)}")
    if not 1 <= check_int(k, "k") <= n:
        raise ValueError(f"need 1 <= k <= n = {n}, got k = {k}")
    for a in alphas:
        if not 0 <= check_int(a, "evaluation point") < spec.q:
            raise ValueError(f"evaluation point {a} out of range for GF({spec.q})")
    if len(set(alphas)) != n:
        raise ValueError("repeated evaluation points")
    for v in multipliers:
        if not 0 < check_int(v, "column multiplier") < spec.q:
            raise ValueError(f"column multiplier {v} is not a nonzero element of GF({spec.q})")
    # row i + 1 is row i times the alphas, one gather from the mul table
    mul, alpha = spec.tables.mul, np.array(alphas)
    rows = [np.array(multipliers)]
    for _ in range(k - 1):
        rows.append(mul[rows[-1], alpha])
    return LinearCode(Matrix(spec, np.array(rows)))


def one_point_basis(k: int) -> list[tuple[int, int]]:
    """Monomial exponents (i, j) of x^i y^j with j <= 1 and 2i + 3j <= k.

    x and y have pole orders 2 and 3 at the point at infinity, so these
    are k functions with poles bounded by k * O, distinct pole orders, for
    any k >= 1.
    """
    if k < 1:
        raise ValueError(f"pole bound must be >= 1, got k = {k}")
    monos = [(i, 0) for i in range(k // 2 + 1)]
    monos += [(i, 1) for i in range((k - 3) // 2 + 1)] if k >= 3 else []
    monos.sort(key=lambda ij: 2 * ij[0] + 3 * ij[1])
    return monos


def elliptic_code(
    curve: EllipticCurve, k: int, eval_points: list[CurvePoint] | None = None
) -> LinearCode:
    """One-point evaluation code with pole divisor k * O.

    Evaluation points default to every rational point except infinity.
    The dimension is exactly k, and the minimum distance is n - k or
    n - k + 1.
    """
    spec = curve.spec
    if eval_points is None:
        eval_points = points(curve)[1:]
    eval_points = list(eval_points)
    n = len(eval_points)
    # one lookup in the curve's point set per point; the first bad point raises
    seen = set()
    for p in eval_points:
        if p.is_infinity:
            raise ValueError("evaluation points must avoid the pole point at infinity")
        if not curve.contains(p):
            raise ValueError(f"evaluation point {p} is not on the curve")
        if p in seen:
            raise ValueError(f"repeated evaluation point {p}")
        seen.add(p)
    if not 1 <= check_int(k, "k") < n:
        raise ValueError(f"need 1 <= k < n = {n}, got k = {k}")
    # x^i y^j with j <= 1: powers of x by repeated gathers from the mul table
    xs = np.array([p.x for p in eval_points], dtype=np.int64)
    ys = np.array([p.y for p in eval_points], dtype=np.int64)
    mul = spec.tables.mul
    x_pows = [np.ones(n, dtype=np.int64)]
    rows = []
    for i, j in one_point_basis(k):
        while len(x_pows) <= i:
            x_pows.append(mul[x_pows[-1], xs])
        rows.append(mul[x_pows[i], ys] if j else x_pows[i])
    return LinearCode(Matrix(spec, np.array(rows)))


def elliptic_distribution_from_amin(
    n: int, k: int, q: int, a_min: int
) -> WeightDistribution:
    """Full weight distribution of an [n, k, n-k]_q elliptic-type code.

    Only the minimum-weight count is free: the dual is an [n, n-k, k]
    code, so the binomial-moment equations of ``solve_macwilliams`` fix
    A_(n-k+1) .. A_n from A_(n-k).  Their l = 0 equation makes the counts
    sum to q^k; a count that would come out negative raises (it signals
    an invalid A_(n-k)).
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    if check_int(a_min, "minimum-weight count") <= 0:
        raise ValueError(f"minimum-weight count must be positive, got {a_min}")
    return solve_macwilliams(n, k, q, n - k, k, [a_min])


def amin_coprime(n: int, k: int, q: int) -> int:
    """Minimum-weight count (q-1) C(n, k) / n when gcd(k, n) = 1.

    Applies to a non-MDS code evaluated at all n rational points with a
    pole divisor of degree k supported away from them.
    """
    if math.gcd(k, n) != 1:
        raise ValueError(f"requires gcd(k, n) = 1, got k={k}, n={n}")
    val = Fraction((q - 1) * comb(n, k), n)
    if val.denominator != 1:
        raise ValueError(f"count {val} is not an integer; hypothesis violated")
    return val.numerator


def amin_onepoint(n: int, k: int, q: int) -> int:
    """Minimum-weight count for the one-point code at all non-identity points.

    Requires k! coprime to n + 1 (the number of rational points) and a
    non-MDS code; the count is (q-1)/(n+1) (C(n, k) + (-1)^k n).
    """
    if any(math.gcd(i, n + 1) != 1 for i in range(2, k + 1)):
        raise ValueError(f"requires gcd(k!, n+1) = 1, got k={k}, n+1={n + 1}")
    val = Fraction((q - 1) * (comb(n, k) + (-1) ** k * n), n + 1)
    if val.denominator != 1:
        raise ValueError(f"count {val} is not an integer; hypothesis violated")
    return val.numerator


# -- the divisor-class counting oracle -------------------------------------


def _class_subsets(curve: EllipticCurve, G: Divisor, d_pairs, m: int) -> int:
    """The m-subsets of the distinct rational points ``d_pairs`` whose
    points sum to the class of G, one dict (subset sum -> subsets) per size."""
    plus = _group_law(curve)
    target = None
    for point, mult in G.entries:
        target = plus(target, _multiple(curve, plus, mult, _pair(point)))
    if m == 0:
        return int(target is None)
    sums = [{None: 1}] + [{} for _ in range(m - 1)]
    hits = 0
    for seen, pair in enumerate(d_pairs):
        # an (m-1)-subset of the points before this one completes a hit
        hits += sums[m - 1].get(plus(target, _negate(curve, pair)), 0)
        shifted = {}  # s -> s + pair, shared by every size
        for k in range(min(seen, m - 2), -1, -1):
            bigger = sums[k + 1]
            for s, c in sums[k].items():
                t = shifted.get(s)
                if t is None:
                    t = shifted[s] = plus(s, pair)
                bigger[t] = bigger.get(t, 0) + c
    return hits


def fiber_counts(
    curve, G: Divisor, D_points, budget: int = DEFAULT_FIBER_BUDGET
) -> tuple[int, ...]:
    """Counts a_i of codewords with exactly i zeros, i = 0..deg G.

    a_i is (q - 1) times the number of effective divisors H linearly
    equivalent to G whose support meets D in exactly i places.  Every point
    of G and D must lie on ``curve``.

    The effective divisors, with x marking degree and y the places of D
    met, sum to Z(x) prod_(P in D) (1 + (y - 1) x [P]) in the group ring of
    the divisor classes, Z(x) being the sum of all effective divisors.  On
    the projective line a class is its degree, and holds
    (q^(k+1) - 1) / (q - 1) effective divisors of degree k.  On an
    elliptic curve, by Riemann-Roch, each of the N_1 classes of degree
    k >= 1 holds s_k = (q^k - 1) / (q - 1), so with m = deg G and n distinct
    points in D, hist(y) = sum_(t<m) s_(m-t) C(n, t) (y - 1)^t + N_G (y - 1)^m,
    where N_G counts the m-subsets of D whose points sum to the class of G.
    Places of degree 2 and up never enter.

    ``budget`` bounds the number of effective divisors of degree deg G in
    all classes (the coefficient of t^deg G in the zeta function), which is
    computed, not walked; more of them raise BudgetExceededError.
    """
    m = G.degree
    if m < 0:
        raise ValueError(f"divisor degree must be nonnegative, got {m}")
    if not isinstance(curve, (EllipticCurve, ProjectiveLine)):
        raise TypeError(f"unsupported curve type {type(curve).__name__}")
    D_points = tuple(D_points)
    for point in G.support + D_points:
        _require_on_curve(curve, point)
    q = curve.spec.q
    d_set = set(D_points)
    n = len(d_set)
    if isinstance(curve, EllipticCurve):
        n1 = 1 + len(curve._affine)
        per_class = [(q**k - 1) // (q - 1) for k in range(m + 1)]  # s_k
        total = n1 * per_class[m] if m else 1
    else:
        per_class = [(q ** (k + 1) - 1) // (q - 1) for k in range(m + 1)]
        total = per_class[m]
    if total > check_int(budget, "budget"):
        raise BudgetExceededError(f"effective-divisor enumeration exceeded budget {budget}")
    # coefficients of hist(y) in powers of (y - 1)
    coeffs = [per_class[m - t] * comb(n, t) for t in range(m + 1)]
    if isinstance(curve, EllipticCurve):
        coeffs[m] = _class_subsets(curve, G, [_pair(p) for p in d_set], m)
    return tuple(
        (q - 1) * sum((-1) ** (t - i) * comb(t, i) * coeffs[t] for t in range(i, m + 1))
        for i in range(m + 1)
    )


# -- binomial-moment coefficients of AG codes ------------------------------


def bl_coefficients(dist: WeightDistribution, m: int) -> list[int]:
    """Coefficients B_l of the expansion x^n + sum_l B_l (x-y)^l y^(n-l).

    Defined for distributions with d >= n - m (true for any code evaluated
    from a pole divisor of degree m):  B_l = sum_{i=n-m}^{n-l} C(n-i, l) A_i.
    """
    n = dist.n
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}")
    d = dist.min_distance
    if d is not None and d < n - m:
        raise ValueError(f"distribution has weight {d} below n - m = {n - m}")
    return [
        sum(comb(n - i, l) * dist.counts[i] for i in range(n - m, n - l + 1))
        for l in range(m + 1)
    ]


def bl_bounds(n: int, m: int, g: int, q: int) -> list[tuple[int, int]]:
    """Per-index (lower, upper) bounds on B_l for a genus-g code.

    Exact (lower == upper) for l <= m - 2g + 1; the remaining 2g - 1
    indices only admit the interval
    [max(0, C(n,l)(q^(m-l-g+1) - 1)), C(n,l)(q^(floor((m-l)/2)+1) - 1)].
    """
    if g < 0 or m < 0:
        raise ValueError("need g >= 0 and m >= 0")
    out = []
    for l in range(m + 1):
        base = Fraction(q) ** (m - l - g + 1) - 1
        if l <= m - 2 * g + 1:
            v = comb(n, l) * base
            if v.denominator != 1:
                raise RuntimeError("exact bound is not an integer")
            out.append((v.numerator, v.numerator))
        else:
            lo = comb(n, l) * base
            lo_int = max(0, math.ceil(lo))
            hi = comb(n, l) * (q ** ((m - l) // 2 + 1) - 1)
            out.append((lo_int, hi))
    return out


# -- text format -----------------------------------------------------------
#
# curve:    one line "q a1 a2 a3 a4 a6" of element indices


def parse_curve_text(text: str) -> EllipticCurve:
    toks = text.split()
    if len(toks) != 6:
        raise ValueError(f"expected 6 fields 'q a1 a2 a3 a4 a6', found {len(toks)}")
    vals = []
    for pos, tok in enumerate(toks, start=1):
        try:
            vals.append(int(tok))
        except ValueError:
            raise ValueError(f"field {pos}: not an integer: {tok!r}") from None
    spec = GF(vals[0])
    for pos, v in enumerate(vals[1:], start=2):
        if not 0 <= v < spec.q:
            raise ValueError(f"field {pos}: index {v} out of range for GF({spec.q})")
    return EllipticCurve.from_indices(spec, vals[1:])
