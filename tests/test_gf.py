from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from zetacode.gf import (
    DEFAULT_ORDER_CAP,
    GF,
    FieldElement,
    _digits,
    _raw_mul,
    add,
    elements,
    extension_field,
    inv,
    mul,
)

SUPPORTED = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81)


def test_gf2_addition():
    f = GF(2)
    assert (f.one + f.one).index == 0


def test_gf3_arithmetic():
    f = GF(3)
    two = f.element(2)
    assert (two + two).index == 1
    assert (two * two).index == 1
    assert two.inverse().index == 2


def test_gf4_arithmetic():
    f = GF(4)
    assert f.modulus == (1, 1, 1)
    t, t1 = f.element(2), f.element(3)
    assert (t + t1).index == 1
    # t*(t+1) = t^2+t which reduces to 1 mod t^2+t+1
    assert (t * t1).index == 1
    assert t.inverse().index == 3


def test_gf5_inverse():
    f = GF(5)
    assert f.element(3).inverse().index == 2


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
    assert mul.dtype == np.int32
    rng = random.Random(q)
    pairs = [(a, b) for a in (0, 1, q - 1) for b in range(q)]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for a, b in pairs:
        assert mul[a, b] == _raw_mul(spec, a, b)


def test_elements_order_and_identities():
    for q in (2, 3, 4):
        f = GF(q)
        els = elements(f)
        assert [e.index for e in els] == list(range(q))
        assert els[0].is_zero
        assert (els[1] * els[1]).index == (1 if q == 2 else els[1].index)


def test_pinned_moduli():
    assert GF(8).modulus == (1, 1, 0, 1)
    assert GF(9).modulus == (1, 0, 1)


def test_field_axioms_random_triples():
    rng = random.Random(11)
    for q in SUPPORTED:
        f = GF(q)
        for _ in range(40):
            a, b, c = (f.element(rng.randrange(q)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_frobenius_fixes_every_element():
    for q in SUPPORTED:
        f = GF(q)
        for e in f.elements():
            assert e**q == e


def test_inverse_is_an_involution_and_zero_annihilates():
    for q in SUPPORTED:
        f = GF(q)
        for e in f.elements():
            if e.is_zero:
                assert (e * f.element(1)).is_zero
                continue
            assert inv(inv(e)) == e
            assert mul(e, inv(e)) == f.one
        assert all((f.zero * e).is_zero for e in f.elements())


def test_mismatched_specs_rejected():
    a = GF(2).one
    b = GF(3).one
    with pytest.raises(ValueError, match="mismatched"):
        add(a, b)
    with pytest.raises(ValueError, match="mismatched"):
        mul(a, b)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        inv(GF(7).zero)


def test_reducible_modulus_rejected():
    # t^2 + 1 = (t+1)^2 over GF(2)
    with pytest.raises(ValueError, match="reducible"):
        GF(4, modulus=(1, 0, 1))


def test_non_prime_power_rejected():
    with pytest.raises(ValueError, match="prime power"):
        GF(6)


def test_order_cap():
    with pytest.raises(ValueError, match="cap"):
        GF(2048)
    assert GF(DEFAULT_ORDER_CAP).q == 1024


def test_order_cap_is_configurable():
    f = GF(1031, cap=2048)
    assert f.q == 1031 and f.m == 1
    assert f.element(2).inverse() * f.element(2) == f.one


def test_element_index_range_checked():
    f = GF(4)
    with pytest.raises(ValueError):
        FieldElement(f, 4)


def test_subfield_power_compatibility():
    # x^(p^m) in GF(p^(2m)) fixes exactly the embedded subfield
    base = GF(4)
    ext, embed = extension_field(base, 2)
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


def test_prime_base_extension_is_identity_on_constants():
    ext, embed = extension_field(GF(5), 3)
    assert ext.q == 125
    assert embed == tuple(range(5))
