"""Exact arithmetic in finite fields GF(p^m) for small prime powers.

An element of GF(p^m) is identified by an integer index in [0, q): the
base-p digits of the index, little endian, are the coefficients of the
element's polynomial representative.  Index 0 is the additive identity and
index 1 the multiplicative identity.  The decimal index is also the text
encoding used by every file format in this package.

There is no element object: every function takes and returns plain int
indices, and :meth:`FieldSpec.element` is the one range-checked way in.
Arithmetic runs on operation tables built on first use and kept on the
field spec.  Addition and multiplication are both GF(p)-linear, so both
q x q tables are filled the same way, a block of rows at a time from the
rows before; negation is multiplication by -1, and inverses and powers
are read off the multiplication table by square-and-multiply.  The
tables' ``plus`` is the one helper that adds two index arrays.  The
q x q tables hold indices in the narrowest unsigned dtype that fits
q - 1, and no temporary of their build is q x q.  Field specs and tables
are immutable after construction, so they can be shared between threads
without locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

MAX_ORDER = 1024  # largest field order GF accepts

_FIELDS: dict[int, "FieldSpec"] = {}  # q -> the interned GF(q)


def check_int(value, name: str) -> int:
    """``value`` if it is a plain int, the one kind of integer the package
    takes; anything else (bool, numpy integer, ...) is a TypeError naming ``name``."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__} {value!r}")
    return value


def check_order(q, name: str = "q") -> int:
    """``q`` if it is a plain int and a prime power, the order of a field:
    the one field-order rule.  A non-int is a TypeError naming ``name``;
    any other int is a ValueError.  There is no cap on q here."""
    _prime_power(check_int(q, name))
    return q


def _prime_power(q: int) -> tuple[int, int]:
    """Factor q = p^m with p prime; raise ValueError otherwise.  The
    smallest divisor p > 1 is found by trial division up to sqrt(q), or
    is q itself."""
    if q < 2:
        raise ValueError(f"field order must be at least 2, got {q}")
    p = next((f for f in range(2, isqrt(q) + 1) if q % f == 0), q)
    m, r = 0, q
    while r % p == 0:
        r //= p
        m += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def _digits(index: int, p: int, m: int) -> tuple[int, ...]:
    return tuple((index // p**j) % p for j in range(m))


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
        return self.tables.add.item(self.element(a), self.element(b))

    def sub_idx(self, a: int, b: int) -> int:
        tab = self.tables
        return tab.add.item(self.element(a), tab.neg.item(self.element(b)))

    def mul_idx(self, a: int, b: int) -> int:
        return self.tables.mul.item(self.element(a), self.element(b))

    def inv_idx(self, a: int) -> int:
        if self.element(a) == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self.tables.inv.item(a)

    def pow_idx(self, a: int, e: int) -> int:
        """a^e for any int e, by square-and-multiply with e reduced mod
        q - 1; 0^0 is 1 and a negative power of 0 is a ZeroDivisionError."""
        a, e = self.element(a), check_int(e, "exponent")
        if a == 0:
            if e < 0:
                raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
            return 0 if e else 1
        mul, r, e = self.tables.mul.item, 1, e % (self.q - 1)
        while e:
            if e & 1:
                r = mul(r, a)
            a, e = mul(a, a), e >> 1
        return r

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GF({self.q})"


_TABLE_CHUNK = 1 << 16  # cells per row chunk while filling a q x q table


class _Tables:
    """Dense operation tables for one field; built once, then read only.

    ``add`` and ``mul`` hold indices in the narrowest unsigned dtype
    (uint8 up to GF(256), uint16 up to GF(65536)); ``neg`` and ``inv`` are
    int32.  ``plus(x, y, out=None)`` adds index arrays that broadcast, x
    the smaller: XOR in characteristic 2, else one take from the flattened
    ``add`` table at x q + y.

    ``add`` and ``mul`` are GF(p)-linear in the first operand, so
    ``_double`` fills both, one gather per cell: row a + n x^j of ``add``
    is row a read at the columns b + n x^j, and of ``mul`` it is row a
    plus the row n x^j b.  ``neg`` is row p - 1 of ``mul``.  ``inv`` is
    a^(q - 2), by square-and-multiply on every a at once, checked:
    a inv[a] = 1 for every a != 0."""

    __slots__ = ("add", "neg", "mul", "inv", "plus")

    def __init__(self, spec: FieldSpec):
        p, m, q = spec.p, spec.m, spec.q
        dtype = np.min_scalar_type(q - 1)
        idx = np.arange(q, dtype=dtype)
        self.add = add = np.empty((q, q), dtype=dtype)
        add[0] = idx
        if p == 2:
            plus = np.bitwise_xor
        else:
            flat, wide = add.ravel(), np.min_scalar_type(q * q - 1)

            def plus(x, y, out=None):
                return flat.take(np.multiply(x, q, dtype=wide) + y, out=out)

        self.plus = plus

        def columns(cols, rows, out=None):  # rows read at the columns cols
            return np.take(rows, cols, axis=-1, out=out)

        for j in range(m):  # b + x^j steps digit j of b up by one, mod p
            _double(add, p**j, p, np.roll(idx.reshape(-1, p, p**j), -1, axis=1).ravel(), columns)
        self.mul = mul = np.zeros((q, q), dtype=dtype)
        xb = idx  # x^j b for every b
        for j in range(m):
            if j:  # shift the digits up one place, fold the top one back in
                top, x_m = p ** (m - 1), sum(-c % p * p**i for i, c in enumerate(spec.modulus[:m]))
                xb = plus(xb % top * p, mul[xb // top, x_m])
            _double(mul, p**j, p, xb, plus)
        self.neg = mul[p - 1].astype(np.int32)

        inv, a, e = np.ones(q, dtype=np.int32), idx, q - 2
        while e:
            if e & 1:
                inv = mul[inv, a]
            a, e = mul[a, a], e >> 1
        self.inv = inv.astype(np.int32)
        self.inv[0] = 0
        if (mul[idx[1:], self.inv[1:]] != 1).any():
            raise RuntimeError(f"a^(q - 2) is not the inverse of every a != 0 in GF({q})")


def _double(table: np.ndarray, size: int, p: int, row: np.ndarray, step) -> None:
    """Fill rows [size, p size) of ``table`` from rows [0, size), where
    size = p^j and rows [0, size) are those of every a of degree < j.
    For c < p the index of a + c x^j is a + c p^j, so the rows of c in
    [n, 2n) are step(row, rows of c in [0, n)), with ``row`` the one for
    n x^j, doubled by step(row, row).  A chunk of rows at a time, so that
    no temporary is ever q x q."""
    q = table.shape[1]
    chunk, c = max(1, _TABLE_CHUNK // q), 1
    while c < p:
        stop = min(c, p - c) * size
        for lo in range(0, stop, chunk):
            hi = min(lo + chunk, stop)
            step(row, table[lo:hi], out=table[c * size + lo:c * size + hi])
        row, c = step(row, row), 2 * c


def GF(q: int) -> FieldSpec:
    """Return the interned field of order q, a prime power <= MAX_ORDER;
    the cap is checked first, so no q past it is ever factored.

    For m > 1 the modulus is the first monic irreducible of degree m over
    GF(p) as its lower coefficients, read as a little-endian base-p number,
    count up from 0; the search is deterministic, so element encodings are
    stable across runs.
    """
    spec = _FIELDS.get(check_int(q, "field order"))
    if spec is None:
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the cap {MAX_ORDER}")
        p, m = _prime_power(q)
        mod = None if m == 1 else _smallest_irreducible(p, m)
        spec = _FIELDS.setdefault(q, FieldSpec(p=p, m=m, q=q, modulus=mod))
    return spec
