"""Point finding and the closed-form effective-divisor counts against the
algorithms they replaced, kept here as reference oracles.
``reference_affine_points`` (every pair (x, y) tried) checks
``ag._affine_point_indices`` and ``ag.points``.  ``reference_fiber_counts``
(a recursion over every effective divisor, on the Frobenius orbits that
``reference_places`` lists) and ``dp_fiber_counts`` (a DP over places
counted by degree and class) check ``ag.fiber_counts``.  No oracle is
tested on its own: a fault in one can only fail a comparison with src."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

import numpy as np
import pytest

from zetacode import ag, gf
from zetacode.ag import (
    CurvePoint,
    Divisor,
    EllipticCurve,
    LinePoint,
    ProjectiveLine,
    fiber_counts,
    points,
)
from zetacode.gf import GF, _digits
from zetacode.linear_code import BudgetExceededError
from zetacode.zeta import functional_equation_holds

# -- reference oracles: the brute-force algorithms ----------------------------------


@dataclass(frozen=True)
class Place:
    """A closed point: a Frobenius orbit of geometric points.

    ``rational_point`` is set for degree-1 places; ``class_point`` is the
    group sum of the orbit mapped back to the base curve (genus 1 only).
    """

    degree: int
    key: tuple
    rational_point: object | None
    class_point: object | None



def reference_affine_points(spec, coeffs) -> list[tuple[int, int]]:
    """Every pair (x, y) tested against the Weierstrass equation, lex order."""
    a1, a2, a3, a4, a6 = coeffs
    tab = spec.tables
    mul, add = tab.mul, tab.add
    ys = np.arange(spec.q)
    out = []
    for x in range(spec.q):
        lhs = add[add[mul[ys, ys], mul[mul[a1, x], ys]], mul[a3, ys]]
        x2 = mul[x, x]
        rhs = add[add[mul[x2, x], mul[a2, x2]], add[mul[a4, x], a6]]
        out += [(x, int(y)) for y in np.flatnonzero(lhs == rhs)]
    return out


def reference_extension_field(base, r: int):
    """The embedding by trying every candidate root of the base modulus."""
    ext = GF(base.p ** (base.m * r))
    if r == 1 or base.m == 1:
        return ext, tuple(range(base.q if r == 1 else base.p))
    theta = None
    for cand in range(ext.q):
        acc = 0
        for c in reversed(base.modulus):
            acc = ext.add_idx(ext.mul_idx(acc, cand), c)
        if acc == 0:
            theta = cand
            break
    powers = [1]
    for _ in range(base.m - 1):
        powers.append(ext.mul_idx(powers[-1], theta))
    embed = []
    for a in range(base.q):
        s = 0
        for j, d in enumerate(_digits(a, base.p, base.m)):
            s = ext.add_idx(s, ext.mul_idx(d, powers[j]))
        embed.append(s)
    return ext, tuple(embed)


def _reference_orbits(q, r, ext, pts):
    frob = [ext.pow_idx(i, q) for i in range(ext.q)]
    seen = set()
    for pt in pts:
        if pt in seen:
            continue
        orbit = [pt]
        nxt = tuple(frob[c] for c in pt)
        while nxt != pt:
            orbit.append(nxt)
            nxt = tuple(frob[c] for c in nxt)
        seen.update(orbit)
        if len(orbit) == r:
            yield orbit


def reference_places(curve, max_degree: int) -> list[Place]:
    """Closed points from brute-force points and a Python Frobenius table."""
    spec = curve.spec
    if isinstance(curve, ProjectiveLine):
        out = [Place(1, (1,) + p.sort_key(), p, None) for p in curve.points()]
    else:
        pts = [CurvePoint.infinity()] + [
            CurvePoint(x, y) for x, y in reference_affine_points(spec, curve.coefficient_indices())
        ]
        out = [Place(1, (1,) + p.sort_key(), p, p) for p in pts]
    for r in range(2, max_degree + 1):
        ext, embed = reference_extension_field(spec, r)
        if isinstance(curve, ProjectiveLine):
            for orbit in _reference_orbits(spec.q, r, ext, ((x,) for x in range(ext.q))):
                out.append(Place(r, (r, 1, min(orbit)[0], 0), None, None))
            continue
        inv_embed = {e: i for i, e in enumerate(embed)}
        ext_curve = EllipticCurve.from_indices(ext, [embed[c] for c in curve.coefficient_indices()])
        plus = ag._group_law(ext_curve)
        ext_points = reference_affine_points(ext, ext_curve.coefficient_indices())
        for orbit in _reference_orbits(spec.q, r, ext, ext_points):
            acc = None
            for pt in orbit:
                acc = plus(acc, pt)
            if acc is not None:
                acc = CurvePoint(inv_embed[acc[0]], inv_embed[acc[1]])
            rep = min(orbit)
            out.append(Place(r, (r, 1, rep[0], rep[1]), None, acc or CurvePoint.infinity()))
    out.sort(key=lambda pl: pl.key)
    return out


def reference_fiber_counts(curve, G: Divisor, D_points, budget: int = 10**6):
    """The include/skip recursion over every place, one leaf per effective
    divisor of degree deg G."""
    delta = G.degree
    d_set = set(D_points)
    plus = target = None
    if isinstance(curve, EllipticCurve):
        plus = ag._group_law(curve)
        for point, mult in G.entries:
            target = plus(target, ag._multiple(curve, plus, mult, ag._pair(point)))
    place_list = [
        (
            pl.degree,
            int(pl.degree == 1 and pl.rational_point in d_set),
            None if plus is None else ag._pair(pl.class_point),
        )
        for pl in reference_places(curve, delta)
    ]
    hist = [0] * (delta + 1)
    visited = 0

    def rec(idx, remaining, cls, in_d):
        nonlocal visited
        if remaining == 0:
            visited += 1
            if visited > budget:
                raise BudgetExceededError(f"effective-divisor enumeration exceeded budget {budget}")
            if cls == target:
                hist[in_d] += 1
            return
        if idx == len(place_list):
            return
        degree, hit, step = place_list[idx]
        rec(idx + 1, remaining, cls, in_d)
        for m in range(1, remaining // degree + 1):
            if plus is not None:
                cls = plus(cls, step)
            rec(idx + 1, remaining - m * degree, cls, in_d + hit)

    rec(0, delta, None, 0)
    return tuple((curve.spec.q - 1) * h for h in hist)


# -- reference oracle: the divisor DP over places counted by degree and class ---------


def elliptic_place_counts(curve: EllipticCurve, plus, pairs, max_degree: int):
    """counts[r][i], r = 2..max_degree: the places of degree r whose
    Frobenius orbit sums to the rational point pairs[i], from N_1 and the
    group law alone; ``pairs`` lists every rational point.

    With a = q + 1 - N_1 and s_0 = 2, s_1 = a, s_r = a s_(r-1) - q s_(r-2),
    there are N_r = q^r + 1 - s_r points over GF(q^r).  Their trace to the
    rational points is onto with fibers of N_r / N_1 points, and a point of
    exact degree s | r has trace (r/s) times its degree-s trace, so the
    points of exact degree r with trace P number
    f_r(P) = N_r / N_1 - sum_(s | r, s < r) sum_((r/s) P' = P) f_s(P'),
    with f_1 = 1; each place of degree r is r of them.
    """
    q, n1 = curve.spec.q, len(pairs)
    index = {pair: i for i, pair in enumerate(pairs)}
    a = q + 1 - n1
    s_prev, s_r = 2, a
    f = {1: [1] * n1}
    images = {}  # m -> index of m * pairs[i], for each i
    counts = {}
    for r in range(2, max_degree + 1):
        s_prev, s_r = s_r, a * s_r - q * s_prev
        # N_r / N_1 = (1 - alpha^r)(1 - beta^r) / ((1 - alpha)(1 - beta)),
        # alpha and beta the roots of T^2 - a T + q, is an integer
        f_r = [(q**r + 1 - s_r) // n1] * n1
        for s in range(1, r):
            if r % s:
                continue
            m = r // s
            if m not in images:
                images[m] = [index[ag._multiple(curve, plus, m, pair)] for pair in pairs]
            for i, c in zip(images[m], f[s]):
                f_r[i] -= c
        if any(c < 0 or c % r for c in f_r):
            raise RuntimeError(f"degree-{r} points by class are not r times a place count: {f_r}")
        f[r] = f_r
        counts[r] = [c // r for c in f_r]
    return counts


def _mobius(n: int) -> int:
    out, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    return -out if n > 1 else out


def line_place_count(q: int, r: int) -> int:
    """Places of degree r on the projective line over GF(q): q + 1 for
    r = 1, else the monic irreducibles (1/r) sum_{d | r} mu(d) q^(r/d)."""
    if r == 1:
        return q + 1
    return sum(_mobius(d) * q ** (r // d) for d in range(1, r + 1) if r % d == 0) // r


def dp_fiber_counts(curve, G: Divisor, D_points, budget: int = 10**6):
    """``fiber_counts`` by a dynamic program over (degree used, class, places
    of D met), as in the Euler product Z(t) = prod_P (1 - t^deg P)^-1: the
    places are taken a group at a time, a group being the places of one
    degree and one class point, in D or not.  The budget bounds the
    effective divisors of degree deg G in all classes, counted by the DP."""
    delta = G.degree
    d_set = set(D_points)
    groups: dict[tuple, int] = {}  # (degree, in D, class point) -> places
    plus = target = None
    if isinstance(curve, EllipticCurve):
        plus = ag._group_law(curve)
        for point, mult in G.entries:
            target = plus(target, ag._multiple(curve, plus, mult, ag._pair(point)))
        pairs = [None] + ag._affine_point_indices(curve.spec, curve.coefficient_indices())
        d_pairs = {ag._pair(p) for p in d_set}
        for pair in pairs:
            groups[(1, pair in d_pairs, pair)] = 1
        for r, counts in elliptic_place_counts(curve, plus, pairs, delta).items():
            for pair, c in zip(pairs, counts):
                groups[(r, False, pair)] = c
    else:
        q = curve.spec.q
        groups[(1, True, None)] = len(d_set)
        groups[(1, False, None)] = q + 1 - len(d_set)
        for r in range(2, delta + 1):
            groups[(r, False, None)] = line_place_count(q, r)

    sums: dict[tuple, object] = {}

    def shift(cls, step):
        if plus is None or step is None:
            return cls
        key = (cls, step)
        out = sums.get(key)
        if out is None:
            out = sums[key] = plus(cls, step)
        return out

    # (degree used, class) -> number of effective divisors by places of D met
    states = {(0, None): [1] + [0] * delta}
    for (degree, in_d, step), c in groups.items():
        if c == 0:
            continue
        top = delta // degree
        steps = [None]
        for _ in range(top):
            steps.append(shift(steps[-1], step))
        # (j, ways) to give the group total multiplicity m meeting j places:
        # C(c, j) C(m-1, j-1) compositions for D, C(c+m-1, m) multisets else
        if in_d:
            ways = [[(0, 1)]] + [
                [(j, comb(c, j) * comb(m - 1, j - 1)) for j in range(1, min(c, m) + 1)]
                for m in range(1, top + 1)
            ]
        else:
            ways = [[(0, comb(c + m - 1, m))] for m in range(top + 1)]
        nxt: dict[tuple, list[int]] = {}
        for (used, cls), counts in states.items():
            # a divisor of degree `used` meets at most `used` places, so
            # h + j never passes delta
            nonzero = [(h, v) for h, v in enumerate(counts) if v]
            for m in range((delta - used) // degree + 1):
                key = (used + m * degree, shift(cls, steps[m]))
                out = nxt.get(key)
                if out is None:
                    out = nxt[key] = [0] * (delta + 1)
                for j, w in ways[m]:
                    for h, v in nonzero:
                        out[h + j] += w * v
        states = nxt
    total = sum(sum(counts) for (used, _), counts in states.items() if used == delta)
    if total > budget:
        raise BudgetExceededError(f"effective-divisor enumeration exceeded budget {budget}")
    hist = states.get((delta, target), [0] * (delta + 1))
    return tuple((curve.spec.q - 1) * h for h in hist)


# -- corpus ---------------------------------------------------------------------------


def _nonsingular(spec, coeffs):
    try:
        return EllipticCurve.from_indices(spec, coeffs)
    except ValueError:
        return None


def _seeded_curves(q: int, count: int, seed: int, a1_zero=None, a12_nonzero=False):
    rng = random.Random(seed * 10007 + q)
    spec = GF(q)
    out = []
    while len(out) < count:
        a = [rng.randrange(q) for _ in range(5)]
        if a1_zero is not None:
            a[0] = 0 if a1_zero else rng.randrange(1, q)
        if a12_nonzero:
            a[0], a[1] = rng.randrange(1, q), rng.randrange(1, q)
        e = _nonsingular(spec, a)
        if e is not None:
            out.append(e)
    return out


SEEDED_QS = (7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 125, 128, 243, 256, 512, 729, 1024)


def _seeded_corpus():
    curves = []
    for q in SEEDED_QS:
        n = 3 if q <= 64 else 1
        if q % 2 == 0:
            curves += _seeded_curves(q, n, 1, a1_zero=False)
            curves += _seeded_curves(q, n, 2, a1_zero=True)
        elif q % 3 == 0:
            curves += _seeded_curves(q, n, 3, a12_nonzero=True)
        else:
            curves += _seeded_curves(q, n, 4)
    return curves


def _extreme_trace_curves(q):
    """The first curves in coefficient order with trace 2 sqrt(q) and
    -2 sqrt(q), so a^2 = 4q."""
    spec, root, found = GF(q), round(q**0.5), {}
    for a in itertools.product(range(q), repeat=5):
        e = _nonsingular(spec, a)
        if e is not None:
            t = q + 1 - len(points(e))
            if t * t == 4 * q:
                found.setdefault(t, e)
                if len(found) == 2:
                    return [found[2 * root], found[-2 * root]]
    raise AssertionError(f"no curves of trace +-{2 * root} over GF({q})")


# -- points ---------------------------------------------------------------------------


def test_points_equal_brute_force_on_every_small_curve():
    checked = 0
    for q in (2, 3, 4, 5):
        spec = GF(q)
        for a in itertools.product(range(q), repeat=5):
            e = _nonsingular(spec, a)
            if e is None:
                continue
            assert ag._affine_point_indices(spec, a) == reference_affine_points(spec, a), (q, a)
            checked += 1
    assert checked > 3000


def test_points_equal_brute_force_on_seeded_curves():
    kinds = set()
    for e in _seeded_corpus():
        spec, a = e.spec, e.coefficient_indices()
        got = ag._affine_point_indices(spec, a)
        assert got == reference_affine_points(spec, a), (spec.q, a)
        assert [(p.x, p.y) for p in points(e)[1:]] == got
        if spec.p == 2:
            kinds.add("char 2, a1 != 0" if a[0] else "char 2, a1 = 0")
        elif spec.p == 3:
            assert a[0] and a[1]
            kinds.add("char 3")
    assert kinds == {"char 2, a1 != 0", "char 2, a1 = 0", "char 3"}


def test_contains_equals_brute_force_on_every_pair():
    kinds = set()
    for q in (2, 3, 4, 5, 7, 8, 9):
        if q % 2 == 0:
            curves = _seeded_curves(q, 2, 5, a1_zero=False) + _seeded_curves(q, 2, 6, a1_zero=True)
        else:
            curves = _seeded_curves(q, 3, 7)
        for e in curves:
            a = e.coefficient_indices()
            on = set(reference_affine_points(e.spec, a))
            assert e.contains(CurvePoint.infinity())
            for x, y in itertools.product(range(q), repeat=2):
                assert e.contains(CurvePoint(x, y)) == ((x, y) in on), (q, a, x, y)
            if q % 2 == 0:
                kinds.add("char 2, a1 != 0" if a[0] else "char 2, a1 = 0")
            elif q % 3 == 0:
                kinds.add("char 3")
    assert kinds == {"char 2, a1 != 0", "char 2, a1 = 0", "char 3"}


def test_char_2_with_a1_has_one_x_with_b_zero():
    # b = a1 x + a3 vanishes at exactly x = a3 / a1, where y is the single
    # square root of c
    f16 = GF(16)
    e = EllipticCurve.from_indices(f16, [3, 5, 7, 2, 9])
    x0 = f16.mul_idx(7, f16.inv_idx(3))
    pts = ag._affine_point_indices(f16, e.coefficient_indices())
    assert pts == reference_affine_points(f16, e.coefficient_indices())
    assert len([p for p in pts if p[0] == x0]) == 1


# -- fiber counts ---------------------------------------------------------------------


def _random_divisors(rng, pts, delta, count):
    """G = delta * infinity, then G with affine and negative entries."""
    out = [Divisor.of({pts[0]: delta})]
    while len(out) < count:
        p1, p2, p3 = (rng.choice(pts) for _ in range(3))
        out.append(Divisor.of([(p1, delta + 2), (p2, -1), (p3, -1)]))
    return out


def test_fiber_counts_equal_recursion_on_elliptic_curves():
    # the seeded curves, then the curves with a^2 = 4q over GF(4) and GF(9),
    # where T^2 - a T + q has a double root
    rng = random.Random(8)
    curves = [e for q in (2, 3, 4, 5, 7, 8, 9, 16) for e in _seeded_curves(q, 2, 6)]
    checked = 0
    for e in curves + _extreme_trace_curves(4) + _extreme_trace_curves(9):
        q, pts = e.spec.q, points(e)
        for delta in range(0, 6):
            if q ** max(delta, 1) > 256 or len(pts) * q**delta > 4000:
                break
            for G in _random_divisors(rng, pts, delta, 3):
                D = rng.sample(pts, rng.randrange(0, len(pts) + 1))
                got = fiber_counts(e, G, D)
                assert got == reference_fiber_counts(e, G, D) == dp_fiber_counts(e, G, D), (
                    q, e.coefficient_indices(), G, D,
                )
                checked += 1
    assert checked > 100


def test_fiber_counts_equal_recursion_on_the_line():
    rng = random.Random(9)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32):
        line = ProjectiveLine(GF(q))
        pts = line.points()
        for delta in range(0, 6):
            if q ** max(delta, 1) > 1024 or q ** (delta + 1) > 5000:
                break
            for G in _random_divisors(rng, pts, delta, 2):
                D = rng.sample(pts, rng.randrange(0, len(pts) + 1))
                assert fiber_counts(line, G, D) == reference_fiber_counts(line, G, D), (q, G, D)


def test_fiber_counts_on_the_line_past_the_field_cap():
    # no extension field is built: GF(5^5), GF(7^4) and GF(32^3) are over
    # the cap, and every effective divisor of degree delta is counted once
    for q, delta in ((5, 5), (7, 4), (32, 3), (2, 12)):
        line = ProjectiveLine(GF(q))
        hist = fiber_counts(line, Divisor.of({LinePoint.infinity(): delta}), line.points()[1:])
        assert sum(hist) == q ** (delta + 1) - 1


@pytest.mark.parametrize("q, coeffs, delta", [
    (5, [0, 0, 0, 1, 0], 5),
    (5, [0, 0, 0, 1, 0], 7),
    (7, [0, 0, 0, 0, 2], 6),
    (31, [0, 0, 0, 1, 3], 3),
])
def test_elliptic_fiber_counts_past_the_field_cap(q, coeffs, delta):
    # q^delta is over the cap of GF, and no extension field is built.  By
    # Riemann-Roch every class of degree delta >= 1 holds (q^delta - 1) / (q - 1)
    # effective divisors, so the a_i of one class sum to q^delta - 1 and the
    # budget boundary sits at N_1 times that
    e = EllipticCurve.from_indices(GF(q), coeffs)
    assert q**delta > gf.MAX_ORDER
    pts = points(e)
    per_class = (q**delta - 1) // (q - 1)
    for P in pts[:3]:
        G = Divisor.of([(CurvePoint.infinity(), delta - 1), (P, 1)])
        hist = fiber_counts(e, G, pts[1:])
        assert sum(hist) == q**delta - 1
        assert hist == dp_fiber_counts(e, G, pts[1:])
    G = Divisor.of({CurvePoint.infinity(): delta})
    hist = fiber_counts(e, G, pts[1:], budget=len(pts) * per_class)
    assert sum(hist) == q**delta - 1
    assert hist == dp_fiber_counts(e, G, pts[1:], budget=len(pts) * per_class)
    for count in (fiber_counts, dp_fiber_counts):
        with pytest.raises(BudgetExceededError):
            count(e, G, pts[1:], budget=len(pts) * per_class - 1)


def test_line_past_the_cap_against_polynomial_roots():
    # H = div(f) + delta * infinity for f of degree <= delta meets the affine
    # points in the distinct roots of f
    q, delta = 5, 5
    coeffs = np.array(list(itertools.product(range(q), repeat=delta + 1)))[1:]
    powers = np.array([[pow(x, k, q) for x in range(q)] for k in range(delta + 1)])
    zeros = ((coeffs @ powers) % q == 0).sum(axis=1)
    expected = tuple(int((zeros == i).sum()) for i in range(delta + 1))
    line = ProjectiveLine(GF(q))
    G = Divisor.of({LinePoint.infinity(): delta})
    assert fiber_counts(line, G, line.points()[1:]) == expected


# -- the budget -----------------------------------------------------------------------


@pytest.mark.parametrize("q, coeffs, delta", [
    (5, [0, 0, 0, 1, 1], 3),
    (4, [0, 0, 1, 0, 0], 4),
    (7, [0, 0, 0, 0, 2], 2),
    (2, [1, 0, 0, 0, 1], 5),
])
def test_budget_boundary_elliptic(q, coeffs, delta):
    e = EllipticCurve.from_indices(GF(q), coeffs)
    pts = points(e)
    count = len(pts) * (q**delta - 1) // (q - 1)
    G = Divisor.of({CurvePoint.infinity(): delta})
    assert fiber_counts(e, G, pts[1:], budget=count) == fiber_counts(e, G, pts[1:])
    with pytest.raises(BudgetExceededError) as exc:
        fiber_counts(e, G, pts[1:], budget=count - 1)
    assert str(exc.value) == f"effective-divisor enumeration exceeded budget {count - 1}"


@pytest.mark.parametrize("q, delta", [(2, 4), (5, 3), (4, 5), (5, 5)])
def test_budget_boundary_line(q, delta):
    line = ProjectiveLine(GF(q))
    count = (q ** (delta + 1) - 1) // (q - 1)
    G = Divisor.of({LinePoint.infinity(): delta})
    D = line.points()[1:]
    assert fiber_counts(line, G, D, budget=count) == fiber_counts(line, G, D)
    with pytest.raises(BudgetExceededError) as exc:
        fiber_counts(line, G, D, budget=count - 1)
    assert str(exc.value) == f"effective-divisor enumeration exceeded budget {count - 1}"


# -- the curve-zeta functional equation ---------------------------------------------------


def test_functional_equation_helper():
    assert functional_equation_holds(5, (1, 3, 5))
    assert functional_equation_holds(3, (1, 0, 6, 0, 9))
    assert functional_equation_holds(7, (1,))
    assert not functional_equation_holds(2, (1, 5, 3))   # a_2 != q a_0
    assert not functional_equation_holds(3, (1, 2, 6, 5, 9))  # a_3 != q a_1
    assert not functional_equation_holds(2, (1, 2))      # odd degree
    assert functional_equation_holds(2, (1, 0, -2), -1)  # a_2 = -q a_0
    assert not functional_equation_holds(2, (1, 0, -2))


@pytest.mark.parametrize("coeffs, sign", [((1, 0, 4), 2), ((0, 0, 0), 0), ((1, 0, 2), -2)])
def test_functional_equation_sign_must_be_plus_or_minus_one(coeffs, sign):
    with pytest.raises(ValueError, match=f"^sign must be 1 or -1, got {sign}$"):
        functional_equation_holds(2, coeffs, sign)
