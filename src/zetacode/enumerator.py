"""Exact weight-enumerator algebra.

A weight enumerator is the coefficient vector (f_0, ..., f_n) of a
homogeneous degree-n polynomial sum f_i x^(n-i) y^i.  Coefficients are
exact rationals throughout; nothing in this module touches floating
point.  The same type carries code enumerators (nonnegative integers),
virtual enumerators (arbitrary rationals with f_0 = 1), and the
4-divisible sign-alternating enumerators used by the classifier.

The MacWilliams transform and the MDS closed form are integer kernels:
the transform puts the coefficients over one common denominator and
expands the substitution by two Kronecker substitutions, each a Horner
pass over one big integer that packs a polynomial's coefficients as
signed b-bit digits, so no step multiplies two big integers; the MDS
weights come from a one-term recurrence.  A ``Fraction`` is made only
for each coefficient returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

from .linear_code import WeightDistribution

_F0 = Fraction(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _convolve(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    out = [_F0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    out[i + j] += ui * vj
    return out


@dataclass(frozen=True)
class WeightEnumerator:
    """Coefficients of a homogeneous bivariate polynomial of degree n.

    ``coeffs[i]`` multiplies x^(n-i) y^i.  The field order is not part of
    the enumerator: every operation that depends on it takes q.
    ``_transforms`` holds the MacWilliams substitutions computed so far, by
    field order (see ``macwilliams_substitute``); it lives and dies with
    this enumerator.
    """

    n: int
    coeffs: tuple[Fraction, ...]
    _transforms: dict[int, "WeightEnumerator"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise ValueError(f"need {self.n + 1} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs))

    # -- structure -------------------------------------------------------

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted({0} | {i for i, c in enumerate(self.coeffs) if c and i > 0}))

    @property
    def min_distance(self) -> int | None:
        """Least positive index with a nonzero coefficient."""
        for i in range(1, self.n + 1):
            if self.coeffs[i]:
                return i
        return None

    def total(self) -> Fraction:
        """The value at (1, 1); q^k for the enumerator of an [n, k] code."""
        return sum(self.coeffs, start=_F0)

    def __mul__(self, other: "WeightEnumerator") -> "WeightEnumerator":
        if not isinstance(other, WeightEnumerator):
            return NotImplemented
        return WeightEnumerator(
            self.n + other.n, tuple(_convolve(list(self.coeffs), list(other.coeffs)))
        )

    def __pow__(self, e: int) -> "WeightEnumerator":
        if e < 1:
            raise ValueError("enumerator powers need e >= 1")
        out = self
        for _ in range(e - 1):
            out = out * self
        return out


def from_distribution(dist: WeightDistribution) -> WeightEnumerator:
    """Homogenize a weight distribution into its enumerator."""
    return WeightEnumerator(dist.n, tuple(Fraction(c) for c in dist.counts))


def to_distribution(enum: WeightEnumerator) -> WeightDistribution:
    counts = []
    for i, c in enumerate(enum.coeffs):
        if c.denominator != 1 or c < 0:
            raise ValueError(f"coefficient {c} at index {i} is not a nonnegative integer")
        counts.append(c.numerator)
    return WeightDistribution(enum.n, tuple(counts))


def macwilliams_substitute(enum: WeightEnumerator, q: int) -> WeightEnumerator:
    """The unscaled substitution F(x + (q-1)y, x - y), expanded exactly.

    The expansion is kept on ``enum``, so every later call with the same
    enumerator and q returns the same object without recomputing it.
    """
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    sub = enum._transforms.get(q)
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
    n = enum.n
    nums, den = _over_one_denominator((c.numerator, c.denominator) for c in enum.coeffs)
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
    return WeightEnumerator(n, tuple(Fraction(c, den) for c in _signed_digits(acc_g, b, n + 1)))


def macwilliams_dual(enum: WeightEnumerator, q: int, k: int) -> WeightEnumerator:
    """q^(-k) F(x + (q-1)y, x - y): the enumerator of the dual code.

    The result may have negative coefficients when the input is only a
    virtual enumerator.
    """
    if not 0 <= k <= enum.n:
        raise ValueError(f"dimension k={k} out of range for length {enum.n}")
    sub = macwilliams_substitute(enum, q)
    scale = Fraction(1, q**k)
    return WeightEnumerator(enum.n, tuple(scale * c for c in sub.coeffs))


def is_virtually_self_dual(enum: WeightEnumerator, q: int, sign: int = 1) -> bool:
    """Whether sign q^(n/2) F equals F(x + (q-1)y, x - y) exactly.

    With sign = 1 this integral identity is equivalent to invariance under
    the sqrt(q)-normalized substitution and avoids irrational arithmetic;
    sign = -1 asks for the substitution to negate F instead, as it does
    for formal weight enumerators.  It only makes sense for even n.
    """
    if enum.n % 2:
        raise ValueError(f"virtual self-duality needs an even length, got n={enum.n}")
    scale = sign * q ** (enum.n // 2)
    sub = macwilliams_substitute(enum, q)
    return all(scale * c == s for c, s in zip(enum.coeffs, sub.coeffs))


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
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    if n < 1:
        raise ValueError(f"length n must be >= 1, got n={n}")
    if d == n:
        raise ValueError(f"d = n = {n} is excluded from the MDS enumerator basis")
    if not (1 <= d <= n - 1 or d == n + 1):
        raise ValueError(f"need 1 <= d <= n-1 or d = n+1, got d={d}, n={n}")
    return WeightEnumerator(n, _mds_coeffs(n, d, q))


def solve_macwilliams(
    n: int, k: int, q: int, d: int, d_dual: int, knowns=()
) -> WeightDistribution:
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
        a = int(a)
        if a < 0:
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
    return WeightDistribution(n, tuple(counts))


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
