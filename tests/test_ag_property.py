"""Property tests of the AG-code constructions whose rank is a theorem.

``grs_code`` builds its code without a rank check: any k columns of its
generator are a Vandermonde matrix on distinct points times nonzero
multipliers.  Here an RREF confirms rank k on random valid inputs.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from zetacode.ag import grs_code
from zetacode.gf import GF
from zetacode.linear_code import dual, rref

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


@st.composite
def grs_inputs(draw):
    """(q, distinct points, nonzero multipliers, k) with 1 <= k <= n <= q."""
    q = draw(st.sampled_from(PRIME_POWERS))
    n = draw(st.integers(1, q))
    alphas = draw(st.permutations(range(q)))[:n]
    multipliers = draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    return q, alphas, multipliers, draw(st.integers(1, n))


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(grs_inputs())
def test_grs_generator_has_rank_k(case):
    q, alphas, multipliers, k = case
    c = grs_code(GF(q), alphas, multipliers, k)
    _, rank, pivots = rref(c.gen)
    assert (c.n, c.k) == (len(alphas), k)
    # MDS: every k columns are independent, the first k among them
    assert rank == k and pivots == tuple(range(k))
    if k < c.n:
        assert dual(c).k == c.n - k
