from __future__ import annotations

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from zetacode import gf
from zetacode.gf import GF, MAX_ORDER, FieldSpec, _digits, check_order
from test_divisor_counting import reference_extension_field

SUPPORTED = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81)


def _undigits(digits, p: int) -> int:
    return sum(int(d) * p**j for j, d in enumerate(digits))


def _raw_mul(spec: FieldSpec, a: int, b: int) -> int:
    """The product a b by schoolbook polynomial multiplication and
    reduction by the modulus, sharing no code with the field tables."""
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


def test_gf2_addition():
    f = GF(2)
    assert f.add_idx(1, 1) == 0


def test_gf3_arithmetic():
    f = GF(3)
    assert f.add_idx(2, 2) == 1
    assert f.mul_idx(2, 2) == 1
    assert f.inv_idx(2) == 2


def test_gf4_arithmetic():
    f = GF(4)
    assert f.modulus == (1, 1, 1)
    t, t1 = 2, 3
    assert f.add_idx(t, t1) == 1
    # t*(t+1) = t^2+t which reduces to 1 mod t^2+t+1
    assert f.mul_idx(t, t1) == 1
    assert f.inv_idx(t) == 3


def test_gf5_inverse():
    f = GF(5)
    assert f.inv_idx(3) == 2


@pytest.mark.parametrize("q", [2, 4, 8, 9, 25, 27, 256, 1024])
def test_add_and_neg_tables_are_digitwise(q):
    spec = GF(q)
    p, m = spec.p, spec.m
    dig = np.array([_digits(i, p, m) for i in range(q)], dtype=np.int64)
    place = p ** np.arange(m)
    tab = spec.tables
    for a in range(q):
        assert (tab.add[a] == (dig[a] + dig) % p @ place).all()
    assert (tab.neg == (-dig) % p @ place).all()


@pytest.mark.parametrize("q", [8, 9, 1024])
def test_mul_table_matches_raw_product(q):
    spec = GF(q)
    mul = spec.tables.mul
    assert mul.dtype == (np.uint8 if q <= 256 else np.uint16)
    rng = random.Random(q)
    pairs = [(a, b) for a in (0, 1, q - 1) for b in range(q)]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for a, b in pairs:
        assert mul[a, b] == _raw_mul(spec, a, b)


def _fresh(q: int) -> FieldSpec:
    """GF(q) on a spec of its own, so that its tables are freed with it."""
    spec = GF(q)
    return FieldSpec(p=spec.p, m=spec.m, q=q, modulus=spec.modulus)


def test_every_field_multiplies_inverts_and_raises_to_powers():
    # every field up to the cap: sampled products against the schoolbook
    # oracle, every inverse, and pow_idx against repeated multiplication
    orders = []
    for q in range(2, MAX_ORDER + 1):
        try:
            orders.append(check_order(q))
        except ValueError:
            pass
    assert len(orders) == 198
    rng = random.Random(34)
    for q in orders:
        spec = _fresh(q)
        mul, inv = spec.tables.mul, spec.tables.inv
        for a, b in [(rng.randrange(q), rng.randrange(q)) for _ in range(40)]:
            assert mul[a, b] == _raw_mul(spec, a, b), (q, a, b)
        a = np.arange(1, q)
        assert (mul[a, inv[a]] == 1).all() and inv[0] == 0, q
        for x in (1, q - 1, rng.randrange(1, q)):
            powers = [1]  # x^0, x^1, ... up to the order of x
            while (y := mul.item(powers[-1], x)) != 1:
                powers.append(y)
            for e in (-2, -1, 0, 1, q - 2, q - 1, q, 10**18):
                assert spec.pow_idx(x, e) == powers[e % len(powers)], (q, x, e)
        assert [spec.pow_idx(0, e) for e in (0, 1, q - 1, 10**18)] == [1, 0, 0, 0]
        with pytest.raises(ZeroDivisionError):
            spec.pow_idx(0, -1)


@pytest.mark.parametrize("q", [625, 729, 1024])
def test_table_build_makes_no_q_by_q_temporaries(q):
    # numpy's allocations are traced too: beyond the tables it keeps, a
    # build holds at most 1 MB at any one time
    spec = _fresh(q)
    tracemalloc.start()
    try:
        tab = gf._Tables(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(getattr(tab, name).nbytes for name in tab.__slots__)
    assert kept >= 2 * q * q * tab.mul.itemsize
    assert peak - kept <= 10**6


@pytest.mark.parametrize("q, cap, dtype", [
    (256, MAX_ORDER, np.uint8),
    (512, MAX_ORDER, np.uint16),
    (1024, MAX_ORDER, np.uint16),
])
def test_narrow_tables_at_the_dtype_boundary(q, cap, dtype):
    # add and mul in the narrowest unsigned dtype, mul built in row chunks;
    # neg and inv stay signed; uint16 covers every field up to the cap
    assert q <= cap
    spec = GF(q)
    tab = spec.tables
    assert tab.add.dtype == tab.mul.dtype == dtype
    assert tab.add.shape == tab.mul.shape == (q, q)
    assert all(t.dtype == np.int32 for t in (tab.neg, tab.inv))
    rng = random.Random(q)
    rows = [0, 1, 2, q - 2, q - 1] + [rng.randrange(q) for _ in range(3)]
    for a in rows:
        assert tab.mul[a].tolist() == [_raw_mul(spec, a, b) for b in range(q)]
    for _ in range(2000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert tab.mul[a, b] == _raw_mul(spec, a, b)
    # every nonzero row of mul permutes the nonzero elements
    nonzero = np.sort(tab.mul[1:, 1:], axis=1)
    assert (nonzero == np.arange(1, q)).all()
    assert not tab.mul[0].any() and not tab.mul[:, 0].any()
    if spec.m == 1:
        i = np.arange(q, dtype=np.int64)
        assert (tab.mul == i[:, None] * i[None, :] % q).all()
        assert (tab.add == (i[:, None] + i[None, :]) % q).all()


def test_elements_order_and_identities():
    for q in (2, 3, 4):
        f = GF(q)
        els = [f.element(i) for i in range(q)]
        assert els == list(range(q)) and all(type(e) is int for e in els)
        assert all(f.add_idx(0, e) == e and f.mul_idx(1, e) == e for e in els)
        assert f.mul_idx(1, 1) == 1


def test_moduli_of_the_small_extension_fields():
    assert GF(4).modulus == (1, 1, 1)  # t^2 + t + 1
    assert GF(8).modulus == (1, 1, 0, 1)  # t^3 + t + 1
    assert GF(9).modulus == (1, 0, 1)  # t^2 + 1


def test_every_modulus_is_the_smallest_irreducible():
    # the encoding rule, against sympy's irreducibility test: the first
    # monic irreducible when the low coefficients, read as a little-endian
    # base-p number, count up from 0
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    extensions = sorted(p**m for p in primes for m in range(2, 11) if p**m <= MAX_ORDER)
    assert len(extensions) == 26
    for q in extensions:
        spec = GF(q)
        p, m = spec.p, spec.m
        for low in range(p**m):
            cand = _digits(low, p, m) + (1,)
            if sympy.Poly(list(reversed(cand)), x, modulus=p).is_irreducible:
                break
        assert spec.modulus == cand, q


def test_field_axioms_random_triples():
    rng = random.Random(11)
    for q in SUPPORTED:
        f = GF(q)
        add, mul = f.add_idx, f.mul_idx
        for _ in range(40):
            a, b, c = (f.element(rng.randrange(q)) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_frobenius_fixes_every_element():
    for q in SUPPORTED:
        f = GF(q)
        for e in range(q):
            assert f.pow_idx(e, q) == e


def test_inverse_is_an_involution_and_zero_annihilates():
    for q in SUPPORTED:
        f = GF(q)
        for e in range(1, q):
            assert f.inv_idx(f.inv_idx(e)) == e
            assert f.mul_idx(e, f.inv_idx(e)) == 1
        assert all(f.mul_idx(0, e) == 0 for e in range(q))


def test_inverse_of_zero_rejected():
    f = GF(7)
    with pytest.raises(ZeroDivisionError):
        f.inv_idx(0)
    with pytest.raises(ZeroDivisionError):
        f.mul_idx(3, f.inv_idx(0))


def test_non_prime_power_rejected():
    with pytest.raises(ValueError, match="prime power"):
        GF(6)


def test_check_order_has_no_cap_and_factors_up_to_the_square_root():
    # the smallest prime factor is sought only up to sqrt(q), so a large
    # prime is accepted in well under a second
    for q in (1_000_000_007, 999_999_999_989):
        start = time.perf_counter()
        assert check_order(q) == q
        assert time.perf_counter() - start < 1
    assert check_order(3**20) == 3**20
    with pytest.raises(ValueError, match="^1999999999978 is not a prime power$"):
        check_order(2 * 999_999_999_989)
    with pytest.raises(ValueError, match="^field order must be at least 2, got 1$"):
        check_order(1)
    with pytest.raises(TypeError, match="^order must be an int"):
        check_order(4.0, "order")


def test_order_cap():
    with pytest.raises(ValueError, match="cap"):
        GF(2048)
    assert GF(MAX_ORDER).q == 1024


@pytest.mark.parametrize("q", [1031, 2048, 3**7])
def test_order_cap_checked_before_any_modulus_search(monkeypatch, q):
    def search(p, m):
        raise AssertionError("modulus searched for a field over the cap")

    monkeypatch.setattr(gf, "_smallest_irreducible", search)
    with pytest.raises(ValueError, match="cap"):
        GF(q)
    assert q not in gf._FIELDS


def test_element_index_range_checked():
    f = GF(4)
    assert f.element(3) == 3
    for bad in (4, -1):
        with pytest.raises(ValueError, match="out of range"):
            f.element(bad)
    with pytest.raises(TypeError):
        f.element(2.0)


def test_repeated_gf_reuses_the_interned_field(monkeypatch):
    first = {q: GF(q) for q in SUPPORTED + (256,)}

    def search(p, m):
        raise AssertionError("modulus searched again")

    monkeypatch.setattr(gf, "_smallest_irreducible", search)
    for q, spec in first.items():
        assert GF(q) is spec


def test_tables_are_built_once_per_field(monkeypatch):
    built = []
    real = gf._Tables

    def counting(spec):
        built.append(spec.q)
        return real(spec)

    monkeypatch.setattr(gf, "_FIELDS", {})  # fresh specs, no tables read yet
    monkeypatch.setattr(gf, "_Tables", counting)
    for q in (4, 9, 4, 9, 7):
        for _ in range(3):
            assert GF(q).tables is GF(q).tables
    assert built == [4, 9, 7]


def test_tables_stay_out_of_equality_hash_and_repr():
    a = FieldSpec(p=2, m=3, q=8, modulus=(1, 1, 0, 1))
    b = FieldSpec(p=2, m=3, q=8, modulus=(1, 1, 0, 1))
    before = (hash(a), repr(a))
    assert a.tables.mul.shape == (8, 8)
    assert (hash(a), repr(a)) == before == (hash(b), repr(b)) == (hash(GF(8)), "GF(8)")
    assert a == b == GF(8)
    assert "tables" not in b.__dict__


def test_subfield_power_compatibility():
    # x^(p^m) in GF(p^(2m)) fixes exactly the embedded subfield
    base = GF(4)
    ext, embed = reference_extension_field(base, 2)
    assert ext.q == 16
    assert len(set(embed)) == base.q
    assert embed[0] == 0 and embed[1] == 1
    image = set(embed)
    fixed = {i for i in range(ext.q) if ext.pow_idx(i, base.q) == i}
    assert fixed == image
    # the embedding is a ring homomorphism
    for a, b in itertools.product(range(base.q), repeat=2):
        assert embed[base.add_idx(a, b)] == ext.add_idx(embed[a], embed[b])
        assert embed[base.mul_idx(a, b)] == ext.mul_idx(embed[a], embed[b])

