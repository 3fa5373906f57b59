from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zetacode.gf import GF
from zetacode.enumerator import from_distribution, mds_enumerator
from zetacode.linear_code import (
    BudgetExceededError,
    WeightDistribution,
    dual,
    is_formally_self_dual,
    weight_distribution,
)
from zetacode.zeta import zeta_from_mds_basis
from zetacode import ag
from zetacode.ag import (
    CurvePoint,
    CurveZeta,
    Divisor,
    EllipticCurve,
    LinePoint,
    ProjectiveLine,
    add_points,
    amin_coprime,
    amin_onepoint,
    bl_bounds,
    bl_coefficients,
    curve_rh,
    elliptic_code,
    elliptic_distribution_from_amin,
    fiber_counts,
    grs_code,
    negate_point,
    one_point_basis,
    parse_curve_text,
    points,
    within_hasse_bound,
    zeta_from_point_counts,
)
from test_divisor_counting import reference_places

# (q, [a1, a2, a3, a4, a6], expected point count)
CURVES = [
    (2, [0, 0, 1, 0, 0], 3),
    (2, [0, 0, 1, 1, 0], 5),
    (3, [0, 0, 0, 1, 0], 4),
    (3, [0, 0, 0, 2, 1], 7),
    (5, [0, 0, 0, 1, 1], 9),
    (5, [0, 0, 0, 4, 0], 8),
    (7, [0, 0, 0, 0, 2], 9),
    (7, [0, 0, 0, 1, 0], 8),
]


def curve(q, coeffs) -> EllipticCurve:
    return EllipticCurve.from_indices(GF(q), coeffs)


@pytest.fixture(scope="module")
def corpus_curves():
    return [(curve(q, coeffs), n1) for q, coeffs, n1 in CURVES]


# -- curves and points --------------------------------------------------------


def test_singular_curve_rejected():
    with pytest.raises(ValueError, match="singular"):
        curve(5, [0, 0, 0, 0, 0])  # y^2 = x^3 is cuspidal


def test_point_counts(corpus_curves):
    for e, n1 in corpus_curves:
        pts = points(e)
        assert len(pts) == n1
        assert pts[0].is_infinity
        assert all(e.contains(p) for p in pts)


def test_points_deterministic_order(corpus_curves):
    e, _ = corpus_curves[4]
    pts = points(e)
    keys = [p.sort_key() for p in pts]
    assert keys == sorted(keys)
    assert points(e) == pts


def test_hasse_bound_across_fields():
    cases = CURVES + [
        (4, [0, 0, 1, 0, 0], None),
        (8, [0, 0, 1, 0, 0], None),
        (9, [0, 0, 0, 1, 0], None),
    ]
    for q, coeffs, _ in cases:
        e = curve(q, coeffs)
        n1 = len(points(e))
        assert abs(n1 - (q + 1)) <= 2 * math.sqrt(q)


def test_group_law_axioms_exhaustive(corpus_curves):
    for e, n1 in corpus_curves:
        pts = points(e)
        o = CurvePoint.infinity()
        for p in pts:
            assert add_points(e, p, o) == p
            assert add_points(e, p, negate_point(e, p)) == o
        for p, q_ in itertools.product(pts, repeat=2):
            s = add_points(e, p, q_)
            assert e.contains(s)
            assert s == add_points(e, q_, p)
        for p, q_, r in itertools.product(pts, repeat=3):
            assert add_points(e, add_points(e, p, q_), r) == add_points(
                e, p, add_points(e, q_, r)
            )


def test_group_order_annihilates(corpus_curves):
    for e, n1 in corpus_curves:
        plus = ag._group_law(e)
        for p in points(e):
            assert ag._multiple(e, plus, n1, ag._pair(p)) is None


def test_add_points_requires_membership():
    e = curve(5, [0, 0, 0, 1, 1])
    f5 = GF(5)
    off = CurvePoint.affine(f5.element(0), f5.element(3))
    assert not e.contains(off)
    with pytest.raises(ValueError, match="not on the curve"):
        add_points(e, off, CurvePoint.infinity())


def test_contains_rejects_indices_outside_the_field():
    e = curve(5, [0, 0, 0, 1, 1])
    assert e.contains(CurvePoint(4, 2)) and e.contains(CurvePoint(0, 1))
    G = Divisor.of([(CurvePoint.infinity(), 2)])
    # numpy would read -1 as 4 and -3 as 2, and a bool index as a mask; a
    # bool, a float or a numpy int equals and hashes like the int, so each
    # of these would match (4, 2) or (0, 1) if it counted as an index
    offs = [(-1, 2), (4, -3), (9, 2), (4.0, 2), (True, True), (0, True),
            (np.int64(4), 2), (4, np.int64(2))]
    # one None coordinate makes no point at all, so no second "O"
    for x, y in ((4, None), (None, 2)):
        with pytest.raises(ValueError, match="both coordinates or neither"):
            CurvePoint(x, y)
    for x, y in offs:
        off = CurvePoint(x, y)
        assert not e.contains(off)
        with pytest.raises(ValueError, match="not on the curve"):
            add_points(e, off, CurvePoint.infinity())
        with pytest.raises(ValueError, match="not on the curve"):
            fiber_counts(e, G, [off])
        with pytest.raises(ValueError, match="not on the curve"):
            elliptic_code(e, 2, points(e)[1:3] + [off])
    line = ProjectiveLine(GF(5))
    assert line.contains(LinePoint(4)) and line.contains(LinePoint.infinity())
    assert not line.contains(CurvePoint(4, 2))
    for x in (-1, True, 1.0, np.int64(1)):
        assert not line.contains(LinePoint(x))
        with pytest.raises(ValueError, match="not on the curve"):
            fiber_counts(line, Divisor.of([(LinePoint.infinity(), 2)]), [LinePoint(x)])


def test_the_points_are_found_once_per_curve_object(monkeypatch):
    calls = []
    solve = ag._affine_point_indices

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(ag, "_affine_point_indices", counted)
    e, other = curve(7, [0, 0, 0, 1, 3]), curve(7, [0, 0, 0, 1, 3])
    G = Divisor.of([(CurvePoint.infinity(), 3)])
    pts = points(e)
    assert e.contains(pts[1]) and not e.contains(CurvePoint(1, 1))
    elliptic_code(e, 2)
    counts = fiber_counts(e, G, pts[1:])
    assert fiber_counts(e, G, pts[1:]) == counts
    assert len(calls) == 1
    # the kept points take no part in equality, hashing or repr
    assert e == other and hash(e) == hash(other) and repr(e) == repr(other)
    assert dataclasses.replace(e) == e
    assert len(calls) == 1
    assert fiber_counts(other, G, pts[1:]) == counts
    assert len(calls) == 2
    # a replaced curve finds its own points
    assert points(dataclasses.replace(e, a6=0)) != pts
    assert len(calls) == 3


def test_curve_coefficients_are_range_checked_indices():
    e = curve(5, [0, 0, 0, 1, 1])
    assert e.coefficient_indices() == (0, 0, 0, 1, 1)
    # -16 (4 a4^3 + 27 a6^2) = -496 = 4 in GF(5)
    assert e.discriminant() == 4 and type(e.discriminant()) is int
    with pytest.raises(ValueError, match="out of range"):
        EllipticCurve(GF(5), 0, 0, 0, 1, -4)  # would read as y^2 = x^3 + x + 1
    with pytest.raises(ValueError, match="out of range"):
        curve(5, [0, 0, 0, 1, 6])
    # only plain ints are indices
    for index in (True, 1.0, np.int64(1), None):
        with pytest.raises(TypeError, match="curve coefficient must be an int"):
            EllipticCurve(GF(5), 0, 0, 0, index, 1)
        with pytest.raises(TypeError, match="curve coefficient must be an int"):
            EllipticCurve(GF(5), 0, 0, 0, 1, index)


def test_scalar_multiples_of_negated_points(corpus_curves):
    for e, n1 in corpus_curves:
        plus = ag._group_law(e)
        for p in points(e):
            for m in (1, 2, 5):
                mp = ag._point(ag._multiple(e, plus, m, ag._pair(p)))
                assert ag._point(ag._multiple(e, plus, -m, ag._pair(p))) == negate_point(e, mp)


def test_hasse_bound_is_exact_at_the_boundary():
    # a = N_1 - q - 1 with a^2 = 4q, on curves that attain it
    for q, coeffs, n1 in ((4, [0, 0, 1, 0, 2], 1), (4, [0, 0, 1, 0, 0], 9),
                          (9, [0, 0, 0, 3, 0], 4), (9, [0, 0, 0, 1, 0], 16)):
        assert len(points(curve(q, coeffs))) == n1
        assert within_hasse_bound(q, n1)
        assert not within_hasse_bound(q, n1 + (1 if n1 > q + 1 else -1))


# -- curve zeta ----------------------------------------------------------------


def test_zeta_genus_zero():
    assert zeta_from_point_counts(5, 0, []).coeffs == (1,)


def test_zeta_genus_one_examples():
    assert zeta_from_point_counts(5, 1, [9]).coeffs == (1, 3, 5)
    assert zeta_from_point_counts(7, 1, [8]).coeffs == (1, 0, 7)


def test_zeta_matches_enumerated_counts(corpus_curves):
    for e, n1 in corpus_curves:
        z = zeta_from_point_counts(e.spec.q, 1, [n1])
        assert z.coeffs[1] == n1 - e.spec.q - 1


def test_zeta_inconsistent_counts_rejected():
    # these counts force a half-integer series coefficient
    with pytest.raises(ValueError) as exc:
        zeta_from_point_counts(2, 2, [4, 5])
    assert str(exc.value) == "inconsistent point counts: coefficient 2 is 1/2"


def weil_point_counts(q, coeffs):
    """N_k = q^k + 1 - s_k for k = 1 .. g, where s_k is the k-th power sum
    of the inverse roots of coeffs (1 + c_1 T + ...), by Newton's
    identities s_k = -k c_k - sum_(i<k) c_i s_(k-i)."""
    g = (len(coeffs) - 1) // 2
    s = [0]
    for k in range(1, g + 1):
        s.append(-k * coeffs[k] - sum(coeffs[i] * s[k - i] for i in range(1, k)))
    return [q**k + 1 - s[k] for k in range(1, g + 1)]


def test_zeta_from_counts_of_weil_products():
    # prod (1 - a T + q T^2) over traces a with a^2 <= 4q, at genus 1-8:
    # the point counts of such a numerator give it back, with distinct
    # traces and with traces drawn from two values
    rng = random.Random(29)
    qs = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49)
    for case in range(400):
        q = rng.choice(qs)
        bound = math.isqrt(4 * q)
        if case % 2:
            pool = rng.sample(range(-bound, bound + 1), 2)
            traces = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        else:
            traces = rng.sample(range(-bound, bound + 1), min(rng.randint(1, 8), 2 * bound + 1))
        coeffs = [1]
        for a in traces:
            coeffs = [x - a * y + q * z
                      for x, y, z in zip(coeffs + [0, 0], [0] + coeffs + [0], [0, 0] + coeffs)]
        z = zeta_from_point_counts(q, len(traces), weil_point_counts(q, coeffs))
        assert z.coeffs == tuple(coeffs), (q, traces)


def test_curve_zeta_invariants_enforced():
    with pytest.raises(ValueError, match="constant term"):
        CurveZeta(2, 1, (-2, 5, -2))
    with pytest.raises(ValueError, match="functional equation"):
        CurveZeta(2, 1, (1, 5, 3))


def test_curve_rh_vacuous_for_genus_zero():
    z = zeta_from_point_counts(5, 0, [])
    v = curve_rh(z)
    assert v.holds and v.roots == ()


def test_curve_rh_holds_for_corpus(corpus_curves):
    for e, n1 in corpus_curves:
        z = zeta_from_point_counts(e.spec.q, 1, [n1])
        v = curve_rh(z, 1e-8)
        assert v.holds
        assert len(v.roots) == 2


# -- generalized Reed-Solomon codes ----------------------------------------------


def test_grs_full_support_gf5():
    f5 = GF(5)
    c = grs_code(f5, range(5), [1] * 5, 2)
    wd = weight_distribution(c)
    assert wd.min_distance == 4
    assert list(wd.counts) == [int(x) for x in mds_enumerator(5, 4, 5).coeffs]


def test_grs_k_equals_n_is_full_space():
    c = grs_code(GF(3), range(3), [1, 2, 1], 3)
    assert weight_distribution(c).total() == 27


def test_grs_small_mds():
    c = grs_code(GF(3), range(3), [1, 1, 1], 2)
    assert (c.n, c.k) == (3, 2)
    assert weight_distribution(c).min_distance == 2


def test_grs_every_case_is_mds():
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = GF(q)
        for k in range(1, min(q, 5)):
            c = grs_code(spec, range(q), [1] * q, k)
            wd = weight_distribution(c)
            assert wd.min_distance == q - k + 1
            if k == 1:  # repetition code, d = n
                assert list(wd.counts) == [1] + [0] * (q - 1) + [q - 1]
            else:
                assert list(wd.counts) == [
                    int(x) for x in mds_enumerator(q, q - k + 1, q).coeffs
                ]
            e = from_distribution(wd)
            assert zeta_from_mds_basis(e, q, dimension=k).coeffs == (1,)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9, 16, 27, 256, 1024])
def test_grs_rows_match_scalar_powers(q):
    spec = GF(q)
    rng = random.Random(q)
    n = min(q, 12)
    alphas = rng.sample(range(q), n)
    mults = [rng.randrange(1, q) for _ in range(n)]
    for k in range(1, min(n, 5) + 1):
        rows = grs_code(spec, alphas, mults, k).gen.index_rows()
        assert rows == [
            [spec.mul_idx(v, spec.pow_idx(a, i)) for a, v in zip(alphas, mults)]
            for i in range(k)
        ]


def test_grs_input_validation():
    f5 = GF(5)
    with pytest.raises(ValueError, match="repeated"):
        grs_code(f5, [0, 0, 1], [1, 1, 1], 2)
    with pytest.raises(ValueError, match="zero"):
        grs_code(f5, [0, 1, 2], [1, 0, 1], 2)


# -- one-point elliptic codes ------------------------------------------------------


def test_one_point_basis_counts():
    for k in range(1, 12):
        monos = one_point_basis(k)
        assert len(monos) == k
        assert all(2 * i + 3 * j <= k and j <= 1 for i, j in monos)


def test_elliptic_code_k1_is_repetition():
    e = curve(5, [0, 0, 0, 1, 1])
    c = elliptic_code(e, 1)
    assert (c.n, c.k) == (8, 1)
    assert weight_distribution(c).min_distance == 8


def test_elliptic_code_example_gf5():
    e = curve(5, [0, 0, 0, 1, 1])
    c = elliptic_code(e, 2)
    assert (c.n, c.k) == (8, 2)
    d = weight_distribution(c).min_distance
    assert d in (6, 7)


def test_elliptic_code_dimension_and_distance(corpus_curves):
    for e, n1 in corpus_curves:
        n = n1 - 1
        for k in range(1, min(n, 5)):
            c = elliptic_code(e, k)
            assert (c.n, c.k) == (n, k)
            d = weight_distribution(c).min_distance
            assert n - k <= d <= n - k + 1  # designed distance n - deg G
            assert n + 1 - 1 <= k + d <= n + 1


def test_elliptic_code_rows_match_scalar_powers(corpus_curves):
    for e, n1 in corpus_curves:
        spec, pts = e.spec, points(e)[1:]
        for k in range(1, min(n1 - 1, 7)):
            rows = elliptic_code(e, k).gen.index_rows()
            assert rows == [
                [spec.mul_idx(spec.pow_idx(p.x, i), spec.pow_idx(p.y, j)) for p in pts]
                for i, j in one_point_basis(k)
            ]


# (0, 0) is on the second curve, so no point outside the field may be read
# as (0, 0)
@pytest.mark.parametrize("coeffs", [[0, 0, 0, 1, 3], [0, 0, 0, 1, 0]])
def test_elliptic_code_names_the_first_bad_point(coeffs):
    e = curve(7, coeffs)
    pts = points(e)[1:]
    off = CurvePoint(1, 1)
    assert not e.contains(off)
    cases = [
        (pts[:2] + [off, pts[0]], "evaluation point 1,1 is not on the curve"),
        (pts[:2] + [pts[0], off], f"repeated evaluation point {pts[0]}"),
        (pts[:2] + [CurvePoint(7, 0)], "evaluation point 7,0 is not on the curve"),
        (pts[:2] + [CurvePoint(-1, 0)], "evaluation point -1,0 is not on the curve"),
        (pts[:2] + [LinePoint(1), off], "evaluation point 1 is not on the curve"),
        (pts[:2] + [CurvePoint.infinity(), off], "avoid the pole point at infinity"),
    ]
    for eval_points, message in cases:
        with pytest.raises(ValueError, match=message):
            elliptic_code(e, 2, eval_points)


def test_elliptic_code_rejects_pole_point():
    e = curve(5, [0, 0, 0, 1, 1])
    with pytest.raises(ValueError, match="infinity"):
        elliptic_code(e, 2, eval_points=points(e))
    with pytest.raises(ValueError, match="k < n"):
        elliptic_code(e, 8)


# -- minimum-count recursion --------------------------------------------------------


def _nonmds_codes(corpus_curves, kmax=4):
    for e, n1 in corpus_curves:
        n = n1 - 1
        for k in range(2, min(n, kmax + 1)):
            c = elliptic_code(e, k)
            wd = weight_distribution(c)
            if wd.min_distance == n - k:
                yield e, c, wd


def test_recursion_reproduces_brute_force(corpus_curves):
    seen = 0
    for e, c, wd in _nonmds_codes(corpus_curves):
        rec = elliptic_distribution_from_amin(
            c.n, c.k, c.spec.q, wd.counts[c.n - c.k]
        )
        assert rec == wd
        seen += 1
    assert seen >= 3


def test_recursion_l0_reduces_to_amin():
    rec = elliptic_distribution_from_amin(8, 2, 5, 16)
    assert rec.counts[6] == 16


def test_recursion_rejects_invalid_amin():
    with pytest.raises(ValueError, match="negative"):
        elliptic_distribution_from_amin(8, 2, 5, 1)


def inverted_moment_distribution(n, k, q, a_min):
    """The binomial-moment equations of an [n, k, n-k] code with an
    [n, n-k, k] dual, inverted by hand:

        A_(n-k+l) = C(n, k-l) sum_{i=0}^{l-1} (-1)^i C(n-k+l, i) (q^(l-i) - 1)
                    + (-1)^l C(k, k-l) A_(n-k).

    Raises on a negative count or counts that do not sum to q^k."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    a_min = int(a_min)
    if a_min <= 0:
        raise ValueError(f"minimum-weight count must be positive, got {a_min}")
    counts = [0] * (n + 1)
    counts[0] = 1
    for l in range(k + 1):
        s = sum((-1) ** i * math.comb(n - k + l, i) * (q ** (l - i) - 1) for i in range(l))
        val = math.comb(n, k - l) * s + (-1) ** l * math.comb(k, k - l) * a_min
        if val < 0:
            raise ValueError(f"A_{n - k + l} would be {val}")
        counts[n - k + l] = val
    if sum(counts) != q**k:
        raise ValueError(f"counts sum to {sum(counts)}, not q^k")
    return WeightDistribution(n, tuple(counts))


def test_moment_solver_matches_inverted_formula():
    def outcome(f, *args):
        try:
            return f(*args)
        except ValueError:
            return ValueError

    equal = raised = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        for n in range(2, 13):
            for k in range(1, n):
                for a_min in range(1, 200, 3):
                    want = outcome(inverted_moment_distribution, n, k, q, a_min)
                    got = outcome(elliptic_distribution_from_amin, n, k, q, a_min)
                    assert got == want, (n, k, q, a_min)
                    if want is ValueError:
                        raised += 1
                    else:
                        equal += 1
    assert equal > 1000 and raised > 1000


def test_dual_minimum_counts_match(corpus_curves):
    for e, c, wd in _nonmds_codes(corpus_curves):
        dl = dual(c)
        wdd = weight_distribution(dl)
        assert wdd.counts[c.k] == wd.counts[c.n - c.k]


def test_half_rate_elliptic_codes_formally_self_dual(corpus_curves):
    seen = 0
    for e, c, wd in _nonmds_codes(corpus_curves, kmax=4):
        if c.n == 2 * c.k:
            assert is_formally_self_dual(c)
            seen += 1
    assert seen >= 1


# -- closed-form minimum counts --------------------------------------------------


def test_amin_onepoint_examples(corpus_curves):
    # gcd(k!, n + 1) = 1 instances, checked against brute force
    checked = 0
    for e, n1 in corpus_curves:
        n = n1 - 1
        for k in (2,):
            if n < 3 or any(math.gcd(i, n + 1) != 1 for i in range(2, k + 1)):
                continue
            c = elliptic_code(e, k)
            wd = weight_distribution(c)
            if wd.min_distance != n - k:
                continue
            assert wd.counts[n - k] == amin_onepoint(n, k, e.spec.q)
            checked += 1
    assert checked >= 2


def test_amin_onepoint_value():
    assert amin_onepoint(8, 2, 5) == 16
    assert amin_onepoint(8, 2, 7) == 24


def test_amin_coprime_value():
    # C(9, 2) / 9 = 4
    for q in (2, 3, 5, 7):
        assert amin_coprime(9, 2, q) == (q - 1) * 4


def test_amin_preconditions():
    with pytest.raises(ValueError, match="gcd"):
        amin_coprime(9, 3, 7)
    with pytest.raises(ValueError, match="gcd"):
        amin_onepoint(8, 3, 5)


def test_amin_onepoint_boundary_k1():
    # C(n, 1) - n = 0: consistent with [n, 1, n] codes being excluded as MDS
    assert amin_onepoint(8, 1, 5) == 0


def test_amin_coprime_against_divisor_count():
    # degree-2 pole class on the 9-point curve over GF(7), evaluated at
    # every rational point
    e = curve(7, [0, 0, 0, 0, 2])
    pts = points(e)
    assert len(pts) == 9
    deg2 = [pl for pl in reference_places(e, 2) if pl.degree == 2]
    assert deg2
    cls = deg2[0].class_point
    g_div = Divisor.of([(cls, 1), (CurvePoint.infinity(), 1)])
    assert g_div.degree == 2
    a2 = fiber_counts(e, g_div, pts)[2]
    assert a2 == amin_coprime(9, 2, 7) == 24


# -- divisor fiber counts -----------------------------------------------------------


def test_fiber_matches_grs_distribution():
    f5 = GF(5)
    line = ProjectiveLine(f5)
    for k in (1, 2, 3):
        c = grs_code(f5, range(5), [1] * 5, k)
        wd = weight_distribution(c)
        g_div = Divisor.of({LinePoint.infinity(): k - 1})
        d_pts = [LinePoint(x) for x in range(5)]
        got = fiber_counts(line, g_div, d_pts)
        assert list(got) == [wd.counts[5 - i] for i in range(k)]


def test_fiber_matches_elliptic_brute_force(corpus_curves):
    checked = 0
    for e, n1 in corpus_curves:
        q = e.spec.q
        n = n1 - 1
        kmax = {2: 6, 3: 5, 5: 4, 7: 3}[q]
        for k in range(2, min(n, kmax + 1)):
            c = elliptic_code(e, k)
            wd = weight_distribution(c)
            g_div = Divisor.of({CurvePoint.infinity(): k})
            got = fiber_counts(e, g_div, points(e)[1:])
            assert list(got) == [wd.counts[n - i] for i in range(k + 1)]
            checked += 1
    assert checked >= 6


def test_fiber_total_counts_classes(corpus_curves):
    for e, n1 in corpus_curves[:4]:
        q = e.spec.q
        for k in (2, 3):
            if n1 - 1 <= k:
                continue
            g_div = Divisor.of({CurvePoint.infinity(): k})
            got = fiber_counts(e, g_div, points(e)[1:])
            assert sum(got) == q**k - 1


def test_fiber_over_extension_base_field():
    # base field GF(4): places of degree 2 and 3 live in GF(16) and GF(64),
    # reached through the subfield embedding rather than a prime tower
    f4 = GF(4)
    e = EllipticCurve.from_indices(f4, [0, 0, 1, 0, 0])
    pts = points(e)
    assert len(pts) == 9  # maximal: q + 1 + 2*sqrt(q)
    n = 8
    for k in (2, 3):
        c = elliptic_code(e, k)
        wd = weight_distribution(c)
        got = fiber_counts(e, Divisor.of({CurvePoint.infinity(): k}), pts[1:])
        assert list(got) == [wd.counts[n - i] for i in range(k + 1)]
    # the closed-form minimum count applies at k = 2 (gcd(2!, 9) = 1)
    wd2 = weight_distribution(elliptic_code(e, 2))
    assert wd2.min_distance == 6
    assert wd2.counts[6] == amin_onepoint(8, 2, 4) == 12


def test_fiber_budget():
    e = curve(5, [0, 0, 0, 1, 1])
    g_div = Divisor.of({CurvePoint.infinity(): 3})
    with pytest.raises(BudgetExceededError):
        fiber_counts(e, g_div, points(e)[1:], budget=5)


def test_fiber_count_out_of_range_is_zero():
    # an effective divisor of degree 2 meets at most 2 places, so a_7 = 0
    # and the counts stop at a_2
    e = curve(5, [0, 0, 0, 1, 1])
    g_div = Divisor.of({CurvePoint.infinity(): 2})
    counts = fiber_counts(e, g_div, points(e)[1:])
    assert len(counts) == 3
    assert sum(counts) == 5**2 - 1


def test_fiber_rejects_points_off_the_curve():
    f5 = GF(5)
    e = curve(5, [0, 0, 0, 1, 1])
    g_div = Divisor.of({CurvePoint.infinity(): 3})
    off = CurvePoint(0, 3)
    with pytest.raises(ValueError, match="not on the curve"):
        fiber_counts(e, g_div, points(e)[1:] + [off])
    with pytest.raises(ValueError, match="not on the curve"):
        fiber_counts(e, Divisor.of({CurvePoint.infinity(): 2, off: 1}), points(e)[1:])
    line = ProjectiveLine(f5)
    with pytest.raises(ValueError, match="not on the curve"):
        fiber_counts(line, Divisor.of({LinePoint.infinity(): 2}), [LinePoint(0), points(e)[1]])


def test_fiber_counts_rejects_negative_degree():
    e = curve(5, [0, 0, 0, 1, 1])
    with pytest.raises(ValueError, match=r"^divisor degree must be nonnegative, got -1$"):
        fiber_counts(e, Divisor.of({CurvePoint.infinity(): -1}), points(e)[1:])


# (q, [a1, a2, a3, a4, a6] or None for the line, delta, step through the
# affine points for D, fiber counts)
BENCH_FIBERS = [
    (5, [0, 0, 0, 1, 1], 2, 1, (8, 0, 16)),
    (5, [0, 0, 0, 1, 1], 3, 2, (48, 60, 12, 4)),
    (4, [0, 0, 1, 0, 0], 3, 1, (3, 24, 12, 24)),
    (4, [0, 0, 1, 0, 0], 3, 2, (18, 33, 9, 3)),
    (7, [0, 0, 0, 0, 2], 3, 1, (78, 192, 24, 48)),
    (7, [0, 0, 0, 0, 2], 2, 2, (24, 24, 0)),
    (5, None, 3, 1, (204, 260, 120, 40)),
    (5, None, 2, 2, (64, 48, 12)),
    (4, None, 3, 2, (144, 96, 15, 0)),
]


@pytest.mark.parametrize("q, a, delta, step, expected", BENCH_FIBERS)
def test_fiber_inputs_built_like_the_benchmark(q, a, delta, step, expected):
    # the same calls the benchmark worker makes to build a fiber operation
    spec = GF(q)
    if a is not None:
        pts = [(p.x, p.y) for p in points(curve(q, a))[1:]][::step]
        crv = EllipticCurve.from_indices(spec, a)
        G = Divisor.of([(CurvePoint.infinity(), delta)])
        D = [CurvePoint.affine(spec.element(x), spec.element(y)) for x, y in pts]
    else:
        pts = [(x,) for x in range(q)][::step]
        crv = ProjectiveLine(spec)
        G = Divisor.of([(LinePoint.infinity(), delta)])
        D = [LinePoint(spec.element(x)) for (x,) in pts]
    assert fiber_counts(crv, G, D) == expected
    if a is not None and step == 1:  # against the brute-force code
        wd = weight_distribution(elliptic_code(crv, delta))
        assert list(expected) == [wd.counts[len(D) - i] for i in range(delta + 1)]


# -- moment coefficients of AG distributions ------------------------------------------


def _expand_bl(n, coeffs_b):
    out = [Fraction(0)] * (n + 1)
    out[0] += 1  # the x^n term
    for l, b in enumerate(coeffs_b):
        for a in range(l + 1):
            i = n - l + a
            out[i] += Fraction(b * math.comb(l, a) * (-1) ** a)
    return out


def test_bl_identity_reconstructs_enumerator(corpus_curves):
    f5 = GF(5)
    cases = []
    for k in (2, 3):
        c = grs_code(f5, range(5), [1] * 5, k)
        cases.append((weight_distribution(c), k - 1))
    for e, n1 in corpus_curves[:4]:
        n = n1 - 1
        for k in (2, 3):
            if k < n:
                cases.append((weight_distribution(elliptic_code(e, k)), k))
    for wd, m in cases:
        bl = bl_coefficients(wd, m)
        assert _expand_bl(wd.n, bl) == [Fraction(c) for c in wd.counts]


def test_bl_zero_index_counts_nonzero_words(corpus_curves):
    for e, n1 in corpus_curves[:4]:
        n = n1 - 1
        for k in (2,):
            if k >= n:
                continue
            c = elliptic_code(e, k)
            wd = weight_distribution(c)
            assert bl_coefficients(wd, k)[0] == e.spec.q**k - 1


def test_bl_bounds_grs_all_exact():
    f5 = GF(5)
    for k in (1, 2, 3):
        c = grs_code(f5, range(5), [1] * 5, k)
        wd = weight_distribution(c)
        bl = bl_coefficients(wd, k - 1)
        bounds = bl_bounds(5, k - 1, 0, 5)
        for v, (lo, hi) in zip(bl, bounds):
            assert lo == hi == v


def test_bl_bounds_elliptic(corpus_curves):
    for e, n1 in corpus_curves:
        q = e.spec.q
        n = n1 - 1
        for k in (2, 3):
            if k >= n:
                continue
            wd = weight_distribution(elliptic_code(e, k))
            bl = bl_coefficients(wd, k)
            bounds = bl_bounds(n, k, 1, q)
            for l, (v, (lo, hi)) in enumerate(zip(bl, bounds)):
                assert lo <= v <= hi
                if l <= k - 1:  # m - 2g + 1 with g = 1
                    assert lo == hi == v


# -- text format ------------------------------------------------------------------


def test_curve_text_round_trip():
    assert parse_curve_text("5 0 0 0 1 1\n") == curve(5, [0, 0, 0, 1, 1])


def test_curve_text_errors():
    with pytest.raises(ValueError, match="6 fields"):
        parse_curve_text("5 0 0 0 1\n")
    with pytest.raises(ValueError, match="field 2"):
        parse_curve_text("5 x 0 0 1 1\n")
    with pytest.raises(ValueError, match="field 6"):
        parse_curve_text("5 0 0 0 1 9\n")
