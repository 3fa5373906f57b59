"""Exact weight-enumerator algebra.

A weight enumerator is the coefficient vector (f_0, ..., f_n) of a
homogeneous degree-n polynomial sum f_i x^(n-i) y^i.  Coefficients are
exact rationals throughout; nothing in this module touches floating
point.  The same type carries a code's weight distribution A_0 .. A_n
(den = 1, nonnegative integers), virtual enumerators (arbitrary
rationals with f_0 = 1), and the 4-divisible sign-alternating
enumerators used by the classifier.

Exact polynomials, here and in ``zeta``, are held one way: integer
numerators ``nums`` over one denominator ``den``, in lowest terms, which
every kernel reads and returns (see ``_ExactPolynomial``).

The MacWilliams transform and the MDS closed form are integer kernels:
the transform expands the substitution on the numerators by two
Kronecker substitutions, each a Horner pass over one big integer that
packs a polynomial's coefficients as signed b-bit digits, so no step
multiplies two big integers; the MDS weights come from a one-term
recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm

from .gf import check_int, check_order


def _exact(coeffs) -> tuple[list[int], int]:
    """Ints and Fractions (reduced) over their least common denominator."""
    for c in coeffs:
        if not isinstance(c, Fraction):
            check_int(c, "a coefficient that is not a Fraction")
    den = lcm(*(c.denominator for c in coeffs))
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(u: list[int], v: list[int]) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    out[i + j] += ui * vj
    return out


class _ExactPolynomial:
    """Coefficients nums[i] / den in lowest terms: den > 0 and
    gcd(den, *nums) = 1, so equal polynomials have equal (nums, den).  A
    subclass is a frozen dataclass whose constructor takes ints and
    Fractions instead of its fields ``nums`` and ``den``."""

    @classmethod
    def _over(cls, nums, den: int, **values):
        """The instance with coefficients nums[i] / den, den > 0."""
        self = object.__new__(cls)
        self._set(nums, den, **values)
        return self

    def _set(self, nums, den: int, **values) -> None:
        g = gcd(den, *nums)
        values.update(nums=tuple(x // g for x in nums) if g > 1 else tuple(nums), den=den // g)
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, made on first read."""
        return tuple(Fraction(x, self.den) for x in self.nums)


@dataclass(frozen=True, init=False)
class WeightEnumerator(_ExactPolynomial):
    """Coefficients of a homogeneous bivariate polynomial of degree n.

    ``coeffs[i]`` (that is, ``nums[i] / den``) multiplies x^(n-i) y^i.
    The field order is not part of the enumerator: every operation that
    depends on it takes q.  ``_transforms`` holds the MacWilliams
    substitutions computed so far, by field order (see
    ``macwilliams_substitute``); it lives and dies with this enumerator.
    """

    n: int
    nums: tuple[int, ...] = field(init=False)
    den: int = field(init=False)

    def __init__(self, n: int, coeffs):
        if len(coeffs) != check_int(n, "n") + 1:
            raise ValueError(f"need {n + 1} coefficients, got {len(coeffs)}")
        self._set(*_exact(coeffs), n=n)

    @cached_property
    def _transforms(self) -> dict[int, "WeightEnumerator"]:
        return {}

    # -- structure -------------------------------------------------------

    @property
    def support(self) -> tuple[int, ...]:
        return (0, *(i for i, c in enumerate(self.nums) if c and i > 0))

    @property
    def min_distance(self) -> int | None:
        """Least positive index with a nonzero coefficient."""
        for i in range(1, self.n + 1):
            if self.nums[i]:
                return i
        return None

    def total(self) -> Fraction:
        """The value at (1, 1); q^k for the enumerator of an [n, k] code."""
        return Fraction(sum(self.nums), self.den)

    def __mul__(self, other: "WeightEnumerator") -> "WeightEnumerator":
        if not isinstance(other, WeightEnumerator):
            return NotImplemented
        return WeightEnumerator._over(
            _convolve(self.nums, other.nums), self.den * other.den, n=self.n + other.n
        )

    def __pow__(self, e: int) -> "WeightEnumerator":
        if check_int(e, "e") < 1:
            raise ValueError("enumerator powers need e >= 1")
        out = self
        for _ in range(e - 1):
            out = out * self
        return out


def macwilliams_substitute(enum: WeightEnumerator, q: int) -> WeightEnumerator:
    """The unscaled substitution F(x + (q-1)y, x - y), expanded exactly.

    The expansion is kept on ``enum``, so every later call with the same
    enumerator and q returns the same object without recomputing it.
    """
    sub = enum._transforms.get(check_order(q))
    if sub is None:
        sub = enum._transforms[q] = _substitute(enum, q)
    return sub


def _over_one_denominator(pairs) -> tuple[list[int], int]:
    """The rationals p/m of the (p, m > 0) pairs as integer numerators over
    their least common denominator, and that denominator."""
    pairs = [(p // g, m // g) for p, m in pairs for g in (gcd(p, m),)]
    den = lcm(*(m for _, m in pairs))
    return [p * (den // m) for p, m in pairs], den


def _signed_digits(x: int, b: int, count: int) -> list[int]:
    """d_0 .. d_(count-1) with x = sum d_j 2^(jb) and |d_j| < 2^(b-1), b a
    multiple of 8: adding 2^(b-1) to every digit makes them all
    nonnegative, so one ``to_bytes`` splits x without borrows."""
    width = b // 8
    half = 1 << (b - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    raw = memoryview((x + offset).to_bytes(width * count, "little"))
    return [int.from_bytes(raw[j : j + width], "little") - half for j in range(0, len(raw), width)]


def _substitute(enum: WeightEnumerator, q: int) -> WeightEnumerator:
    """sum_i f_i (1 + (q-1)y)^(n-i) (1 - y)^i over the integer numerators
    f_i D, by two Kronecker substitutions that evaluate at w = 2^b.

    H(w) = sum_i f_i (q - (q-1)w)^(n-i) w^i comes from one Horner pass,
    and G(y) = H(1 - y) is the transform, from a second pass over the
    digits of H.  Every coefficient of H and of G is at most
    sum |f_i| (2q)^n in size, so 2^b > 4 sum |f_i| (2q)^n keeps each
    signed digit apart, and no step multiplies two big integers.
    """
    n, nums = enum.n, enum.nums
    bound = 4 * sum(map(abs, nums)) * (2 * q) ** n
    b = max(8, (bound.bit_length() + 7) // 8 * 8)  # a multiple of 8 with 2^b > bound
    acc = 0
    for i, f in enumerate(nums):
        acc = acc * q - ((acc * (q - 1)) << b)
        if f:
            acc += f << i * b
    acc_g = 0
    for h in reversed(_signed_digits(acc, b, n + 1)):
        acc_g = acc_g - (acc_g << b) + h
    return WeightEnumerator._over(_signed_digits(acc_g, b, n + 1), enum.den, n=n)


def macwilliams_dual(enum: WeightEnumerator, q: int, k: int) -> WeightEnumerator:
    """q^(-k) F(x + (q-1)y, x - y): the enumerator of the dual code.

    The result may have negative coefficients when the input is only a
    virtual enumerator.
    """
    if not 0 <= check_int(k, "k") <= enum.n:
        raise ValueError(f"dimension k={k} out of range for length {enum.n}")
    sub = macwilliams_substitute(enum, q)
    return WeightEnumerator._over(sub.nums, sub.den * q**k, n=enum.n)


def is_virtually_self_dual(enum: WeightEnumerator, q: int, sign: int = 1) -> bool:
    """Whether sign q^(n/2) F equals F(x + (q-1)y, x - y) exactly.

    With sign = 1 this integral identity is equivalent to invariance under
    the sqrt(q)-normalized substitution and avoids irrational arithmetic;
    sign = -1 asks for the substitution to negate F instead, as it does
    for formal weight enumerators.  It only makes sense for even n.
    """
    sub = macwilliams_substitute(enum, q)
    if enum.n % 2:
        raise ValueError(f"virtual self-duality needs an even length, got n={enum.n}")
    if check_int(sign, "sign") not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign}")
    scale = sign * q ** (enum.n // 2)
    # scale c / D = s / E, cross-multiplied
    lhs, rhs = scale * sub.den, enum.den
    return all(lhs * c == rhs * s for c, s in zip(enum.nums, sub.nums))


def _mds_sums(n: int, d: int, q: int) -> list[int]:
    """s_d .. s_n with A_j = C(n, j) (q-1) s_j the weights of an MDS code
    of distance d: s_j = sum_m (-1)^m C(j-1, m) q^(j-d-m), generated as
    s_d = 1, s_(j+1) = (q-1) s_j + (-1)^(j-d+1) C(j-1, j-d+1)."""
    s = [1]
    for j in range(d, n):
        term = comb(j - 1, j - d + 1)
        s.append((q - 1) * s[-1] + (-term if (j - d) % 2 == 0 else term))
    return s


def _mds_coeffs(n: int, d: int, q: int) -> tuple[int, ...]:
    """Closed-form MDS coefficient vector; d = n+1 encodes x^n.

    Internal variant that also admits d = n, the distance of the [n, 1]
    codes that ``grs`` checks against it.
    """
    if d == n + 1:
        return (1,) + (0,) * n
    out = [1] + [0] * n
    for j, s in enumerate(_mds_sums(n, d, q), start=d):
        out[j] = comb(n, j) * (q - 1) * s
    return tuple(out)


def mds_enumerator(n: int, d: int, q: int) -> WeightEnumerator:
    """The weight enumerator an [n, n+1-d, d]_q MDS code must have.

    d = n is rejected: the MDS basis used for zeta expansion skips that
    slot, and no op needs it publicly.
    """
    check_order(q)
    if check_int(n, "n") < 1:
        raise ValueError(f"length n must be >= 1, got n={n}")
    if check_int(d, "d") == n:
        raise ValueError(f"d = n = {n} is excluded from the MDS enumerator basis")
    if not (1 <= d <= n - 1 or d == n + 1):
        raise ValueError(f"need 1 <= d <= n-1 or d = n+1, got d={d}, n={n}")
    return WeightEnumerator._over(_mds_coeffs(n, d, q), 1, n=n)


def solve_macwilliams(
    n: int, k: int, q: int, d: int, d_dual: int, knowns=()
) -> WeightEnumerator:
    """Complete a weight distribution from its low-weight counts.

    ``knowns`` supplies A_d .. A_(n - d_dual); the remaining counts
    A_(n - d_dual + 1) .. A_n come from back-substitution through the
    binomial-moment equations

        sum_{i=d}^{n-l} C(n-i, l) A_i = C(n, l) (q^(k-l) - 1),
        l = d_dual - 1, ..., 0.

    When d + d_dual = n + 2 both the code and its dual meet the Singleton
    bound and no knowns are needed; the then-redundant top equation is
    still validated.  Inconsistent inputs raise instead of being clamped.
    """
    for name, value in (("n", n), ("k", k), ("d", d), ("d_dual", d_dual)):
        check_int(value, name)
    check_order(q)
    if d < 1 or d_dual < 1 or d > n + 1:
        raise ValueError(f"bad distance parameters d={d}, d_dual={d_dual}")
    expected = max(0, n - d_dual - d + 1)
    knowns = list(knowns)
    if len(knowns) != expected:
        raise ValueError(
            f"need {expected} known counts A_{d}..A_{n - d_dual}, got {len(knowns)}"
        )
    if expected == 0 and d + d_dual != n + 2:
        raise ValueError(
            f"no knowns admissible only in the MDS case d + d_dual = n + 2; "
            f"got d={d}, d_dual={d_dual}, n={n}"
        )
    counts = [1] + [0] * (d - 1)  # A_i at index i; A_top is appended in turn
    for off, a in enumerate(knowns):
        if check_int(a, f"known count A_{d + off}") < 0:
            raise ValueError(f"known count A_{d + off} = {a} is negative")
        counts.append(a)
    for l in range(d_dual - 1, -1, -1):
        rhs = comb(n, l) * (q ** (k - l) - 1)
        top = n - l
        if top < d:
            if rhs:
                raise ValueError(
                    f"inconsistent knowns: moment equation l={l} gives 0 != {rhs}"
                )
            continue
        val = rhs - sum(comb(n - i, l) * counts[i] for i in range(d, top))
        if val < 0:
            raise ValueError(
                f"inconsistent knowns: A_{top} would be negative ({val})"
            )
        counts.append(val)
    return WeightEnumerator._over(counts, 1, n=n)


# -- enumerator text format ----------------------------------------------
#
# whitespace-separated tokens: first the length n, then the n+1
# coefficients as "p/q" rationals or bare integers, index order 0..n.


def parse_enumerator_text(text: str) -> WeightEnumerator:
    toks = text.split()
    if not toks:
        raise ValueError("empty enumerator text")
    try:
        n = int(toks[0])
    except ValueError:
        raise ValueError(f"token 1: length is not an integer: {toks[0]!r}") from None
    if n < 0:
        raise ValueError(f"token 1: negative length {n}")
    if len(toks) != n + 2:
        raise ValueError(f"expected {n + 1} coefficients after the length, found {len(toks) - 1}")
    coeffs = []
    for pos, tok in enumerate(toks[1:], start=2):
        try:
            coeffs.append(int(tok))
        except ValueError:
            # every token int() accepts, Fraction() accepts with the same value
            try:
                coeffs.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"token {pos}: not a rational: {tok!r}") from None
    return WeightEnumerator(n, tuple(coeffs))
