from __future__ import annotations

import json
from fractions import Fraction

import pytest

from zetacode.gf import GF
from zetacode.enumerator import (
    WeightEnumerator,
    from_distribution,
    macwilliams_substitute,
)
from zetacode import cli, zeta
from zetacode.linear_code import LinearCode, Matrix, weight_distribution
from zetacode.classify import (
    FormalReport,
    classify,
    extremal_bound,
    formal_checks,
    is_formal_weight_enumerator,
    w12,
    w8,
)

HAMMING8 = [
    [1, 0, 0, 0, 0, 1, 1, 1],
    [0, 1, 0, 0, 1, 0, 1, 1],
    [0, 0, 1, 0, 1, 1, 0, 1],
    [0, 0, 0, 1, 1, 1, 1, 0],
]


def test_w8_constant():
    assert [int(c) for c in w8().coeffs] == [1, 0, 0, 0, 14, 0, 0, 0, 1]


def test_w12_constant():
    assert [int(c) for c in w12().coeffs] == [1, 0, 0, 0, -33, 0, 0, 0, -33, 0, 0, 0, 1]


def test_w8_is_the_extended_hamming_enumerator():
    c = LinearCode(Matrix.from_indices(GF(2), HAMMING8))
    assert tuple(int(x) for x in w8().coeffs) == weight_distribution(c).counts


# -- type classification ------------------------------------------------------


def test_w8_classified_type_ii_extremal():
    rep = classify(w8(), 2)
    assert rep.virtually_self_dual
    assert rep.b_max == 4
    assert rep.type_label == "II"
    assert rep.d == 4 and rep.d_bound == 4
    assert rep.extremal


def test_product_pattern_reported_as_type_i_with_flag():
    e = WeightEnumerator(2, (1, 0, 1)) ** 5
    rep = classify(e, 2)
    assert rep.type_label == "I"
    assert rep.v_pattern
    assert rep.d == 2
    assert rep.d_bound == 2 * (10 // 8) + 2 == 4
    assert not rep.extremal


def test_tetra_is_extremal_type_iii():
    # self-dual, support {0, 3}, so 3-divisible with 4 | n
    tetra = WeightEnumerator(4, (1, 0, 0, 8, 0))
    rep = classify(tetra, 3)
    assert rep.virtually_self_dual
    assert rep.b_max == 3
    assert rep.type_label == "III"
    assert rep.d == 3 == rep.d_bound
    assert rep.extremal


def test_non_divisible_support_is_type_none():
    # x^2 + xy/2 + y^2/2 is fixed by the scaled binary transform but has
    # support gcd 1, so no divisibility type applies
    e = WeightEnumerator(2, (1, Fraction(1, 2), Fraction(1, 2)))
    rep = classify(e, 2)
    assert rep.virtually_self_dual
    assert rep.b_max == 1
    assert rep.type_label == "none"
    assert not rep.extremal


def test_not_virtually_self_dual_reported():
    rep = classify(WeightEnumerator(4, (1, 0, 0, 0, 1)), 2)
    assert not rep.virtually_self_dual
    assert rep.type_label == "none"
    assert rep.reason is not None


def test_type_v_for_general_q():
    e = WeightEnumerator(2, (1, 0, 4)) ** 2
    rep = classify(e, 5)
    assert rep.virtually_self_dual
    assert rep.v_pattern
    assert rep.type_label == "V"


def test_extremal_bound_formulas():
    assert extremal_bound("I", 8) == 4
    assert extremal_bound("II", 8) == 4
    assert extremal_bound("III", 12) == 6
    assert extremal_bound("IV", 6) == 4
    with pytest.raises(ValueError):
        extremal_bound("V", 8)


def test_bounds_monotone_in_length():
    for label in ("I", "II", "III", "IV"):
        values = [extremal_bound(label, n) for n in range(2, 73, 2)]
        assert values == sorted(values)


# -- formal enumerators ----------------------------------------------------------


def test_w12_is_formal_w8_is_not():
    assert is_formal_weight_enumerator(w12())
    assert not is_formal_weight_enumerator(w8())


def test_odd_length_is_not_formal():
    assert not is_formal_weight_enumerator(WeightEnumerator(5, (1, 0, 0, 0, 1, 0)))


def test_w8_times_w12_is_formal():
    prod = w8() * w12()
    assert prod.n == 20
    assert is_formal_weight_enumerator(prod)
    rep = formal_checks(prod)
    assert rep.d == 4
    assert rep.d_bound == 4 * ((20 - 12) // 24) + 4 == 4
    assert rep.extremal
    assert rep.anti_functional_equation


def test_w8_squared_times_w12_is_formal():
    prod = (w8() ** 2) * w12()
    assert is_formal_weight_enumerator(prod)
    assert formal_checks(prod).anti_functional_equation


def test_w12_formal_checks():
    rep = formal_checks(w12())
    assert isinstance(rep, FormalReport)
    assert rep.symmetric
    assert all(i % 4 == 0 for i in w12().support)
    assert rep.n_mod_8 == 4
    assert rep.zeta.degree == 6
    assert rep.zeta.coeffs[0] == Fraction(-1, 15)
    assert rep.zeta.evaluate(1) == 1
    assert rep.anti_functional_equation
    assert rep.d_bound == 4
    assert rep.extremal
    # the root-circle verdict is reported, not assumed
    assert isinstance(rep.rh.holds, bool)
    assert len(rep.rh.roots) == 6


def test_formal_checks_rejects_non_formal():
    with pytest.raises(ValueError, match="formal"):
        formal_checks(w8())
    # symmetric, but with support outside 4Z
    with pytest.raises(ValueError, match="formal"):
        formal_checks(WeightEnumerator(4, (1, 0, 2, 0, 1)))


def test_transform_is_an_involution_up_to_scale():
    for e in (w8(), w12(), w8() * w12()):
        twice = macwilliams_substitute(macwilliams_substitute(e, 2), 2)
        scale = Fraction(2) ** e.n
        assert [c / scale for c in twice.coeffs] == list(e.coeffs)


def classify_report(capsys, tmp_path, enum, q) -> dict:
    """The JSON report of ``zetacode classify`` on ``enum`` over GF(q)."""
    path = tmp_path / "enum.txt"
    path.write_text(" ".join(map(str, (enum.n, *enum.coeffs))) + "\n")
    assert cli.main(["classify", str(path), str(q)]) == 0
    return json.loads(capsys.readouterr().out)


def test_classification_report_fields(capsys, tmp_path):
    rep = classify_report(capsys, tmp_path, w8(), 2)
    assert rep["type"] == "II"
    assert rep["extremal"] is True
    assert rep["formal_weight_enumerator"] is False
    assert rep["zeta"]["coefficients"] == ["1/5", "2/5", "2/5"]
    rep12 = classify_report(capsys, tmp_path, w12(), 2)
    assert rep12["formal_weight_enumerator"] is True
    assert rep12["formal"]["anti_functional_equation"] is True


@pytest.mark.parametrize(
    "enum, q, expected",
    [
        (w8() * w12(), 2, 1),  # formal: classify, formal checks, zeta share one
        (w8(), 2, 1),  # type II with 4-divisible support
        (WeightEnumerator(4, (1, 0, 0, 8, 0)), 3, 1),  # tetracode, type III
        # 4-divisible support read over GF(3): one transform at q = 3, one at 2
        (w8(), 3, 2),
    ],
)
def test_classification_report_expands_each_transform_once(
    capsys, tmp_path, transform_log, enum, q, expected
):
    classify_report(capsys, tmp_path, enum, q)
    assert len(transform_log) == expected
    assert len(set(transform_log)) == expected


@pytest.mark.parametrize("enum", [w12(), w8() * w12()], ids=["w12", "w8*w12"])
def test_classify_formal_report_runs_one_root_circle_verdict(
    capsys, tmp_path, monkeypatch, enum
):
    calls = []
    verdict = zeta.roots_on_circle_verdict

    def counted(*args, **kwargs):
        calls.append(args)
        return verdict(*args, **kwargs)

    monkeypatch.setattr(zeta, "roots_on_circle_verdict", counted)
    rep = classify_report(capsys, tmp_path, enum, 2)
    assert rep["formal_weight_enumerator"] is True
    assert "holds" in rep["zeta"]["rh"]
    assert len(calls) == 1


def _v_pattern_inputs():
    """(x^2 + (q-1) y^2)^m for q = 2, 3, 4, and near misses of each."""
    for q in (2, 3, 4):
        base = WeightEnumerator(2, (1, 0, q - 1))
        for m in (1, 2, 5, 12):
            e = base**m
            yield e, q
            c = list(e.coeffs)
            yield WeightEnumerator(e.n, tuple(c[:-1] + [c[-1] + 1])), q
            yield WeightEnumerator(e.n, tuple(c[:2] + [c[2] - Fraction(1, 2)] + c[3:])), q
            yield WeightEnumerator(e.n, tuple(c[:1] + [Fraction(1)] + c[2:])), q
            yield e, q + 1  # the pattern of another field
        yield WeightEnumerator(3, (1, 0, q - 1, 0)), q  # odd length


def test_v_pattern_matches_enumerator_power():
    from zetacode.classify import _is_v_pattern

    found = 0
    for e, q in _v_pattern_inputs():
        base = WeightEnumerator(2, (1, 0, q - 1))
        expected = e.n % 2 == 0 and (base ** (e.n // 2)).coeffs == e.coeffs
        assert _is_v_pattern(e, q) is expected
        found += expected
    assert found == 12
