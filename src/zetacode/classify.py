"""Divisibility and self-duality classification of weight enumerators.

Covers the Gleason-Pierce type system (I-IV plus the degenerate product
pattern V), the Mallows-Sloane extremality bounds, and the companion
theory of 4-divisible enumerators that the binary MacWilliams substitution
negates rather than fixes ("formal" enumerators below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .enumerator import WeightEnumerator, is_virtually_self_dual
from .zeta import (
    RhVerdict,
    ZetaPolynomial,
    anti_self_reciprocal_check,
    riemann_hypothesis,
    zeta_from_mds_basis,
)

_BOUNDS = {
    "I": lambda n: 2 * (n // 8) + 2,
    "II": lambda n: 4 * (n // 24) + 4,
    "III": lambda n: 3 * (n // 12) + 3,
    "IV": lambda n: 2 * (n // 6) + 2,
}


def w8() -> WeightEnumerator:
    """x^8 + 14 x^4 y^4 + y^8, the doubly-even self-dual invariant of degree 8."""
    return WeightEnumerator(8, (1, 0, 0, 0, 14, 0, 0, 0, 1))


def w12() -> WeightEnumerator:
    """x^12 - 33 x^8 y^4 - 33 x^4 y^8 + y^12, the degree-12 anti-invariant."""
    return WeightEnumerator(12, (1, 0, 0, 0, -33, 0, 0, 0, -33, 0, 0, 0, 1))


@dataclass(frozen=True)
class DivisibilityReport:
    """Classification of a virtually self-dual enumerator.

    ``b_max`` is the largest b > 1 with support inside b * Z (1 when
    none); ``type_label`` one of I/II/III/IV/V/none, with the strongest
    applicable label preferred (II over I).  The pure product pattern
    (x^2 + (q-1) y^2)^(n/2) is reported through ``v_pattern`` as a flag
    alongside any type it overlaps.
    """

    virtually_self_dual: bool
    reason: str | None
    b_max: int
    type_label: str
    v_pattern: bool
    d: int | None
    d_bound: int | None
    extremal: bool


def extremal_bound(type_label: str, n: int) -> int:
    """Minimum-distance bound for a type I-IV enumerator of length n."""
    try:
        return _BOUNDS[type_label](n)
    except KeyError:
        raise ValueError(f"no extremality bound for type {type_label!r}") from None


def _b_max(enum: WeightEnumerator) -> int:
    return max(math.gcd(*enum.support), 1)  # the support's 0 leaves the gcd alone


def _is_v_pattern(enum: WeightEnumerator, q: int) -> bool:
    """Whether enum is (x^2 + (q-1) y^2)^(n/2): C(n/2, t) (q-1)^t at index
    2t and 0 at every odd index, all integers, so den = 1."""
    if enum.n % 2 or enum.den != 1:
        return False
    half = enum.n // 2
    power = 1
    for t in range(half + 1):
        if enum.nums[2 * t] != math.comb(half, t) * power:
            return False
        power *= q - 1
    return not any(enum.nums[1::2])


def classify(enum: WeightEnumerator, q: int) -> DivisibilityReport:
    """Assign a Gleason-Pierce type and extremality verdict.

    Inputs that are not virtually self-dual over q come back with type
    "none" and a reason rather than an error.
    """
    n = enum.n
    d = enum.min_distance
    b = _b_max(enum)
    if n % 2:
        return DivisibilityReport(False, "odd length", b, "none", False, d, None, False)
    if not is_virtually_self_dual(enum, q):
        return DivisibilityReport(
            False, f"not virtually self-dual over GF({q})", b, "none", False, d, None, False
        )
    v_flag = b % 2 == 0 and _is_v_pattern(enum, q)
    label = "none"
    if b > 1:
        if q == 2 and b % 4 == 0 and n % 8 == 0:
            label = "II"
        elif q == 2 and b % 2 == 0:
            label = "I"
        elif q == 3 and b % 3 == 0 and n % 4 == 0:
            label = "III"
        elif q == 4 and b % 2 == 0:
            label = "IV"
        elif v_flag:
            label = "V"
    if label in _BOUNDS:
        bound = extremal_bound(label, n)
        extremal = d == bound
    else:
        bound = None
        extremal = False
    return DivisibilityReport(True, None, b, label, v_flag, d, bound, extremal)


def is_formal_weight_enumerator(enum: WeightEnumerator) -> bool:
    """4-divisible support and exact sign-flip under the binary transform.

    Condition (b) is the integral identity
    W(x + y, x - y) = -2^(n/2) W(x, y); odd lengths cannot satisfy it.
    """
    if enum.n % 2:
        return False
    if any(c and i % 4 for i, c in enumerate(enum.nums)):
        return False
    return is_virtually_self_dual(enum, 2, -1)


@dataclass(frozen=True)
class FormalReport:
    """Verification results for one formal weight enumerator."""

    n: int
    d: int
    n_mod_8: int
    symmetric: bool
    zeta: ZetaPolynomial
    anti_functional_equation: bool
    d_bound: int
    extremal: bool
    rh: RhVerdict


def formal_checks(enum: WeightEnumerator, tol: float = 1e-8) -> FormalReport:
    """Run the full battery on a formal weight enumerator.

    The input must pass :func:`is_formal_weight_enumerator` (so its support
    lies in 4Z).  Verifies symmetry in x and y, the sign-flipped zeta
    functional equation a_j = -2^(j-g) a_(2g-j) with g = n/2 + 1 - d, the
    extremality bound 4*floor((n-12)/24) + 4, and reports the root-circle
    verdict (an open question in general, so measured rather than assumed).
    """
    if not is_formal_weight_enumerator(enum):
        raise ValueError("input fails the formal-weight-enumerator conditions")
    n = enum.n
    d = enum.min_distance
    if d is None:
        raise ValueError("formal enumerator with empty support")
    symmetric = enum.nums == enum.nums[::-1]
    p = zeta_from_mds_basis(enum, 2, dimension=n // 2)
    bound = 4 * ((n - 12) // 24) + 4
    return FormalReport(
        n=n,
        d=d,
        n_mod_8=n % 8,
        symmetric=symmetric,
        zeta=p,
        anti_functional_equation=anti_self_reciprocal_check(p),
        d_bound=bound,
        extremal=d == bound,
        rh=riemann_hypothesis(p, tol),
    )

