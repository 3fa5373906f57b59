"""Exact arithmetic in finite fields GF(p^m) for small prime powers.

An element of GF(p^m) is identified by an integer index in [0, q): the
base-p digits of the index, little endian, are the coefficients of the
element's polynomial representative.  Index 0 is the additive identity and
index 1 the multiplicative identity.  The decimal index is also the text
encoding used by every file format in this package.

There is no element object: every function takes and returns plain int
indices, and :meth:`FieldSpec.element` is the one range-checked way in.
Multiplication, inversion and powers run on discrete-log tables built on
first use and kept on the field spec; addition is digit-wise modular
arithmetic.  The q x q addition and multiplication tables hold indices in
the narrowest unsigned dtype that fits q - 1 and are filled a block of rows
at a time.  Field specs and tables are immutable after construction, so
they can be shared between threads without locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_ORDER = 1024  # largest field order GF accepts

_FIELDS: dict[int, "FieldSpec"] = {}  # q -> the interned GF(q)


def check_int(value, name: str) -> int:
    """``value`` if it is a plain int, the one kind of integer the package
    takes; anything else (bool, numpy integer, ...) is a TypeError naming ``name``."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__} {value!r}")
    return value


def _prime_power(q: int) -> tuple[int, int]:
    """Factor q = p^m with p prime; raise ValueError otherwise."""
    if q < 2:
        raise ValueError(f"field order must be at least 2, got {q}")
    p = 2
    while q % p:
        p += 1
    m, r = 0, q
    while r % p == 0:
        r //= p
        m += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def _digits(index: int, p: int, m: int) -> tuple[int, ...]:
    return tuple((index // p**j) % p for j in range(m))


def _undigits(digits, p: int) -> int:
    return sum(int(d) * p**j for j, d in enumerate(digits))


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Little-endian polynomial division over GF(p); b must be monic-led."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * max(0, da - db + 1)
    for i in range(da - db, -1, -1):
        c = (a[i + db] * inv_lead) % p
        if c:
            quot[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return quot, a


def _poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Whether a monic polynomial of degree >= 1 is irreducible, by trial
    division by every monic polynomial of degree <= deg/2."""
    m = len(coeffs) - 1
    work = list(coeffs)
    for deg in range(1, m // 2 + 1):
        for low in range(p**deg):
            g = list(_digits(low, p, deg)) + [1]
            _, rem = _poly_divmod(work, g, p)
            if rem == [0]:
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    for low in range(p**m):
        cand = _digits(low, p, m) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


@dataclass(frozen=True)
class FieldSpec:
    """A concrete finite field GF(p^m) with a fixed modulus.

    ``modulus`` is the full little-endian coefficient tuple of the monic
    irreducible reduction polynomial; it is None exactly when m == 1.
    Instances are interned by :func:`GF`, so equality is cheap.  The
    operation tables are built on the first read of ``tables`` and kept on
    the instance; they take no part in equality, hashing or repr.
    """

    p: int
    m: int
    q: int
    modulus: tuple[int, ...] | None

    def element(self, index: int) -> int:
        """The range-checked index of one element of this field."""
        if not 0 <= check_int(index, "index") < self.q:
            raise ValueError(f"index {index} out of range for GF({self.q})")
        return index

    # -- index arithmetic ------------------------------------------------

    @cached_property
    def tables(self) -> "_Tables":
        return _Tables(self)

    def add_idx(self, a: int, b: int) -> int:
        return int(self.tables.add[a, b])

    def sub_idx(self, a: int, b: int) -> int:
        return int(self.tables.add[a, self.tables.neg[b]])

    def mul_idx(self, a: int, b: int) -> int:
        return int(self.tables.mul[a, b])

    def inv_idx(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return int(self.tables.inv[a])

    def pow_idx(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
            return 0
        tab = self.tables
        return int(tab.exp[(int(tab.log[a]) * e) % (self.q - 1)])

    def int_mul_idx(self, n: int, a: int) -> int:
        """n * a for an ordinary integer n (reduced through the prime subfield)."""
        return self.mul_idx(n % self.p, a)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GF({self.q})"


_TABLE_CHUNK = 1 << 16  # cells per row chunk while filling a q x q table


class _Tables:
    """Dense operation tables for one field; built once, then read only.

    ``add`` and ``mul`` hold indices in the narrowest unsigned dtype
    (uint8 up to GF(256), uint16 up to GF(65536)); ``neg``, ``inv``, ``exp``
    and ``log`` stay int32, since the log of 0 is stored as -1."""

    __slots__ = ("add", "neg", "mul", "inv", "exp", "log")

    def __init__(self, spec: FieldSpec):
        p, m, q = spec.p, spec.m, spec.q
        dtype = np.min_scalar_type(q - 1)
        idx = np.arange(q, dtype=np.int32)
        if p == 2:
            # digit-wise addition mod 2 of little-endian bits is XOR
            narrow = idx.astype(dtype)
            self.add = narrow[:, None] ^ narrow[None, :]
            self.neg = idx
        else:
            wide = np.min_scalar_type(2 * (q - 1))  # holds a sum of two indices
            digits = [(idx // p**j % p).astype(wide) for j in range(m)]
            self.add = _fill_rows(q, dtype, lambda lo, hi: sum(
                (d[lo:hi, None] + d[None, :]) % p * p**j for j, d in enumerate(digits)
            ))
            self.neg = sum(-d.astype(np.int32) % p * p**j for j, d in enumerate(digits))

        gen = _find_generator(spec)
        order = q - 1
        exp = np.zeros(order, dtype=np.int32)
        log = np.full(q, -1, dtype=np.int32)
        x = 1
        for i in range(order):
            exp[i] = x
            log[x] = i
            x = _raw_mul(spec, x, gen)
        if x != 1:
            raise RuntimeError(f"generator {gen} of GF({q}) has wrong order")
        self.exp = exp
        self.log = log

        # a * b = ext[log a + log b], where ext is exp twice (so no sum of
        # two logs needs reducing mod q - 1) followed by zeros; 0 gets the
        # stand-in log 2(q - 1), so every sum with a 0 operand lands there
        ext = np.concatenate([exp, exp, np.zeros(2 * order + 1, dtype=np.int32)]).astype(dtype)
        logs = np.where(log < 0, 2 * order, log).astype(np.min_scalar_type(4 * order))
        self.mul = _fill_rows(q, dtype, lambda lo, hi: ext[logs[lo:hi, None] + logs[None, :]])

        inv = np.zeros(q, dtype=np.int32)
        inv[exp] = exp[(order - np.arange(order)) % order]
        self.inv = inv


def _fill_rows(q: int, dtype, rows) -> np.ndarray:
    """A q x q table of ``dtype`` filled from rows(lo, hi), a chunk of rows
    at a time, so that no temporary is ever q x q."""
    out = np.empty((q, q), dtype=dtype)
    step = max(1, _TABLE_CHUNK // q)
    for lo in range(0, q, step):
        out[lo:lo + step] = rows(lo, min(q, lo + step))
    return out


def _raw_mul(spec: FieldSpec, a: int, b: int) -> int:
    """Table-free product, used only while bootstrapping the exp table."""
    p, m = spec.p, spec.m
    if m == 1:
        return (a * b) % spec.q
    da, db = _digits(a, p, m), _digits(b, p, m)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(da):
        if ai:
            for j, bj in enumerate(db):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    mod = spec.modulus
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i]
        if c:
            for j in range(m + 1):
                prod[i - m + j] = (prod[i - m + j] - c * mod[j]) % p
    return _undigits(prod[:m], p)


def _raw_pow(spec: FieldSpec, a: int, e: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _raw_mul(spec, r, a)
        a = _raw_mul(spec, a, a)
        e >>= 1
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _find_generator(spec: FieldSpec) -> int:
    order = spec.q - 1
    factors = _prime_factors(order)
    for g in range(1, spec.q):
        if all(_raw_pow(spec, g, order // f) != 1 for f in factors):
            return g
    raise RuntimeError(f"GF({spec.q}) has no multiplicative generator")


def GF(q: int) -> FieldSpec:
    """Return the interned field of order q, a prime power <= MAX_ORDER.

    For m > 1 the modulus is the first monic irreducible of degree m over
    GF(p) as its lower coefficients, read as a little-endian base-p number,
    count up from 0; the search is deterministic, so element encodings are
    stable across runs.
    """
    spec = _FIELDS.get(check_int(q, "field order"))
    if spec is None:
        p, m = _prime_power(q)
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the cap {MAX_ORDER}")
        mod = None if m == 1 else _smallest_irreducible(p, m)
        spec = _FIELDS.setdefault(q, FieldSpec(p=p, m=m, q=q, modulus=mod))
    return spec
