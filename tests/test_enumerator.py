from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from zetacode.enumerator import (
    WeightEnumerator,
    is_virtually_self_dual,
    macwilliams_dual,
    macwilliams_substitute,
    mds_enumerator,
    parse_enumerator_text,
    solve_macwilliams,
)
from zetacode.linear_code import dual, weight_distribution


def enum(n, coeffs):
    return WeightEnumerator(n, tuple(Fraction(c) for c in coeffs))


# -- construction -------------------------------------------------------------


def test_support_and_distance():
    e = enum(4, (1, 0, 0, 8, 0))
    assert e.support == (0, 3)
    assert e.min_distance == 3
    assert e.total() == 9
    assert enum(3, (1, 0, 0, 0)).min_distance is None


# -- MacWilliams transform -----------------------------------------------------


def test_repetition_dual_closed_form():
    # dual of the q-ary repetition code, expanded exactly
    for q, n in ((2, 5), (3, 4), (5, 3)):
        rep = enum(n, [1] + [0] * (n - 1) + [q - 1])
        got = macwilliams_dual(rep, q, 1)
        expected = [
            Fraction(comb(n, j) * (q - 1) ** j + (q - 1) * comb(n, j) * (-1) ** j, q)
            for j in range(n + 1)
        ]
        assert list(got.coeffs) == expected


def test_i2_fixed_by_transform():
    e = enum(2, (1, 0, 1))
    assert macwilliams_dual(e, 2, 1).coeffs == e.coeffs


def test_tetra_fixed_by_transform():
    # (x+2y)^4 + 8(x+2y)(x-y)^3 = 9(x^4 + 8xy^3)
    e = enum(4, (1, 0, 0, 8, 0))
    assert macwilliams_dual(e, 3, 2).coeffs == e.coeffs


def test_macwilliams_involution(unit_corpus):
    for c in unit_corpus:
        e = weight_distribution(c)
        back = macwilliams_dual(
            macwilliams_dual(e, c.spec.q, c.k), c.spec.q, c.n - c.k
        )
        assert back.coeffs == e.coeffs


def test_macwilliams_matches_brute_force_dual(unit_corpus):
    for c in unit_corpus:
        d = dual(c)
        if d.is_zero:
            continue
        lhs = macwilliams_dual(
            weight_distribution(c), c.spec.q, c.k
        )
        rhs = weight_distribution(d)
        assert lhs.coeffs == rhs.coeffs


def test_negative_coefficients_flagged_not_rejected():
    virtual = enum(2, (1, 3, 0))
    out = macwilliams_dual(virtual, 2, 1)
    assert any(c < 0 for c in out.coeffs)


def test_transform_is_kept_per_enumerator_and_q(transform_log):
    e = enum(4, (1, 0, 0, 8, 0))
    assert macwilliams_substitute(e, 3) is macwilliams_substitute(e, 3)
    assert macwilliams_dual(e, 3, 2).coeffs == e.coeffs
    assert is_virtually_self_dual(e, 3)
    assert len(transform_log) == 1
    macwilliams_substitute(e, 2)
    assert transform_log == [(e.coeffs, 3), (e.coeffs, 2)]


def test_equal_enumerators_do_not_share_transforms(transform_log):
    a = enum(4, (1, 0, 0, 8, 0))
    b = enum(4, (1, 0, 0, 8, 0))
    sub_a, sub_b = macwilliams_substitute(a, 3), macwilliams_substitute(b, 3)
    assert sub_a == sub_b and sub_a is not sub_b
    assert len(transform_log) == 2


def test_kept_transform_leaves_equality_hash_and_repr_alone():
    a = enum(8, (1, 0, 0, 0, 14, 0, 0, 0, 1))
    b = enum(8, (1, 0, 0, 0, 14, 0, 0, 0, 1))
    before = (hash(a), repr(a))
    macwilliams_substitute(a, 2)
    macwilliams_substitute(a, 3)
    assert (hash(a), repr(a)) == before
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "_transforms" not in repr(a)
    assert a != enum(8, (1, 0, 0, 0, 14, 0, 0, 0, 2))


# -- virtual self-duality --------------------------------------------------------


def test_virtually_self_dual_examples():
    assert is_virtually_self_dual(enum(2, (1, 0, 1)), 2)
    w8 = enum(8, (1, 0, 0, 0, 14, 0, 0, 0, 1))
    assert is_virtually_self_dual(w8, 2)
    assert not is_virtually_self_dual(enum(4, (1, 0, 0, 0, 1)), 2)


@pytest.mark.parametrize("sign", [3, 0, -2])
def test_virtually_self_dual_sign_must_be_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match=f"^sign must be 1 or -1, got {sign}$"):
        is_virtually_self_dual(enum(2, (1, 0, 1)), 2, sign)


def test_virtually_self_dual_odd_length_rejected():
    with pytest.raises(ValueError, match="even"):
        is_virtually_self_dual(enum(3, (1, 0, 0, 1)), 2)


# -- MDS enumerators -------------------------------------------------------------


def test_mds_tetra():
    assert [int(c) for c in mds_enumerator(4, 3, 3).coeffs] == [1, 0, 0, 8, 0]


def test_mds_top_basis_slot_is_xn():
    assert mds_enumerator(6, 7, 3).coeffs == (1, 0, 0, 0, 0, 0, 0)


def test_mds_full_space():
    for q, n in ((2, 4), (3, 5), (4, 3)):
        got = mds_enumerator(n, 1, q)
        expected = [comb(n, i) * (q - 1) ** i for i in range(n + 1)]
        assert [int(c) for c in got.coeffs] == expected


def test_mds_d_equals_n_rejected():
    with pytest.raises(ValueError, match="excluded"):
        mds_enumerator(5, 5, 2)


@pytest.mark.parametrize("n, d", [(0, 1), (-1, 0)])
def test_mds_needs_a_positive_length(n, d):
    with pytest.raises(ValueError, match=f"got n={n}$"):
        mds_enumerator(n, d, 2)


def test_mds_coefficients_nonnegative_integers():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, q + 2):
            for d in range(1, n):
                e = mds_enumerator(n, d, q)
                for c in e.coeffs:
                    assert c.denominator == 1 and c >= 0
                assert e.total() == q ** (n + 1 - d)


# -- moment-equation completion ----------------------------------------------------


def test_solve_macwilliams_mds_case():
    assert solve_macwilliams(4, 2, 3, 3, 3).nums == (1, 0, 0, 8, 0)
    assert solve_macwilliams(2, 1, 2, 2, 2).nums == (1, 0, 1)


def test_solve_macwilliams_with_knowns():
    got = solve_macwilliams(10, 5, 2, 4, 4, knowns=(15, 0, 15))
    assert got.nums == (1, 0, 0, 0, 15, 0, 15, 0, 0, 0, 1)


def test_solve_macwilliams_rejects_inconsistent_knowns():
    with pytest.raises(ValueError, match="[Ii]nconsistent|negative"):
        solve_macwilliams(10, 5, 2, 4, 4, knowns=(15, 0, 99))


def test_solve_macwilliams_wrong_known_count():
    with pytest.raises(ValueError, match="known"):
        solve_macwilliams(10, 5, 2, 4, 4, knowns=(15,))


def test_solve_macwilliams_empty_knowns_only_when_doubly_mds():
    # d + d_dual = n + 1 cannot occur for a linear code and admits no
    # completion without knowns
    with pytest.raises(ValueError, match="MDS"):
        solve_macwilliams(5, 2, 2, 3, 3)


def test_solve_macwilliams_matches_brute_force(unit_corpus):
    from zetacode.linear_code import min_distance

    for c in unit_corpus[:20]:
        d = dual(c)
        if d.is_zero:
            continue
        wd = weight_distribution(c)
        dd = min_distance(d)
        dc = wd.min_distance
        if dc is None or dc + dd > c.n + 2:
            continue
        knowns = wd.nums[dc : c.n - dd + 1]
        got = solve_macwilliams(c.n, c.k, c.spec.q, dc, dd, knowns)
        assert got == wd


# -- text format ---------------------------------------------------------------------


def test_enumerator_text_round_trip():
    e = enum(4, (1, 0, Fraction(1, 3), 8, 0))
    back = parse_enumerator_text("4 1 0 1/3 8 0\n")
    assert back.coeffs == e.coeffs and back.n == 4


def test_enumerator_text_errors():
    with pytest.raises(ValueError, match="token 1"):
        parse_enumerator_text("x 1 0")
    with pytest.raises(ValueError, match="coefficients"):
        parse_enumerator_text("2 1 0")
    with pytest.raises(ValueError, match="token 3"):
        parse_enumerator_text("1 1 y")


@pytest.mark.parametrize(
    "tok,value",
    [("1_000", 1000), ("+3", 3), ("-0", 0), ("3/6", Fraction(1, 2)), ("٣", 3), ("-7/1", -7)],
)
def test_enumerator_text_tokens_read_as_fractions_do(tok, value):
    """A coefficient token parsed as an integer first means what Fraction()
    makes of it."""
    e = parse_enumerator_text(f"1 1 {tok}")
    assert e.coeffs == (1, value) == (1, Fraction(tok))
    assert all(type(c) is Fraction for c in e.coeffs)


@pytest.mark.parametrize("tok", ["x", "1/0", "1.2.3", "0x10", "1__0"])
def test_enumerator_text_token_errors_keep_their_message(tok):
    with pytest.raises(ValueError) as exc:
        parse_enumerator_text(f"1 1 {tok}")
    assert str(exc.value) == f"token 3: not a rational: {tok!r}"


# -- unique basis expansion (triangular reconstruction) -------------------------------


def test_enumerator_reconstructs_from_zeta_expansion(unit_corpus):
    from zetacode.enumerator import _mds_coeffs
    from zetacode.zeta import zeta_from_mds_basis

    for c in unit_corpus[:15]:
        q = c.spec.q
        e = weight_distribution(c)
        d = e.min_distance
        try:
            p = zeta_from_mds_basis(e, q, dimension=c.k)
        except ValueError:
            continue  # degenerate source
        rebuilt = [Fraction(0)] * (c.n + 1)
        for j, a in enumerate(p.coeffs):
            row = _mds_coeffs(c.n, d + j, q)
            for i in range(c.n + 1):
                rebuilt[i] += a * row[i]
        assert rebuilt == list(e.coeffs)
