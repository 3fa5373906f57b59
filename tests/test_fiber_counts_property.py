"""Property test of the closed-form fiber counts against the divisor DP."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from test_divisor_counting import dp_fiber_counts

from zetacode.ag import Divisor, EllipticCurve, ProjectiveLine, fiber_counts, points
from zetacode.gf import GF
from zetacode.linear_code import BudgetExceededError

QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


@st.composite
def fiber_cases(draw):
    """(curve, G, D, budget): an elliptic curve or the line over GF(q),
    q <= 16; G on one or two points with deg G = 0..4; D drawn from the
    rational points with repeats, free to meet supp G; the budget at, one
    below or far above the effective divisors of degree deg G."""
    q = draw(st.sampled_from(QS))
    spec = GF(q)
    if draw(st.booleans()):
        try:
            curve = EllipticCurve.from_indices(spec, draw(st.lists(
                st.integers(0, q - 1), min_size=5, max_size=5)))
        except ValueError:  # singular
            assume(False)
        pts = points(curve)
    else:
        curve = ProjectiveLine(spec)
        pts = curve.points()
    point = st.sampled_from(pts)
    m = draw(st.integers(0, 4))
    first = draw(st.integers(-2, m + 2))
    G = Divisor.of([(draw(point), first), (draw(point), m - first)])
    D = draw(st.lists(point, max_size=len(pts) + 3))
    if isinstance(curve, EllipticCurve):
        total = len(pts) * (q**m - 1) // (q - 1) if m else 1
    else:
        total = (q ** (m + 1) - 1) // (q - 1)
    budget = total + draw(st.sampled_from((10**6, 0, -1)))
    return curve, G, D, budget


def _outcome(count, curve, G, D, budget):
    try:
        return count(curve, G, D, budget)
    except BudgetExceededError as exc:
        return str(exc)


@settings(max_examples=300,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(fiber_cases())
def test_closed_form_matches_divisor_dp(case):
    assert _outcome(fiber_counts, *case) == _outcome(dp_fiber_counts, *case)
