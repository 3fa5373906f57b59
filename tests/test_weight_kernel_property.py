"""Property tests of the row reduction and the weight-counting kernel on
random small matrices and codes."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import CORPUS_QS
from test_linear_code import assert_matches_reference, assert_rref_matches_reference

from zetacode.gf import GF
from zetacode.linear_code import (
    LinearCode,
    Matrix,
    distance_distribution,
    weight_distribution,
)

MAX_WORDS = 2**10


@st.composite
def small_codes(draw) -> LinearCode:
    """A random [n, k]_q code over GF(2)..GF(9) with q^k <= 2^10 and n <= 12."""
    q = draw(st.sampled_from(CORPUS_QS))
    k = draw(st.integers(1, max(k for k in range(1, 11) if q**k <= MAX_WORDS)))
    n = draw(st.integers(k, 12))
    entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=k, max_size=k))
    try:
        return LinearCode(Matrix.from_indices(GF(q), rows))
    except ValueError:  # dependent rows
        assume(False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(small_codes())
def test_kernel_matches_reference_and_distance_oracle(c):
    assert_matches_reference(c)
    assert distance_distribution(c, MAX_WORDS**2) == weight_distribution(c)


@st.composite
def matrices(draw) -> tuple:
    """(field, rows) of up to 17 x 29 entries over fields from GF(2) to
    GF(1024); about a third of the entries are zero, so that zero columns
    and dependent rows come up."""
    spec = GF(draw(st.sampled_from([2, 3, 4, 5, 8, 9, 27, 243, 256, 512, 1024])))
    nrows, ncols = draw(st.integers(1, 17)), draw(st.integers(1, 29))
    entry = st.one_of(st.just(0), st.integers(0, spec.q - 1), st.integers(0, spec.q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    # a scaled copy of one row replaces another: a dependent row anywhere
    if nrows > 1 and draw(st.booleans()):
        src, dst = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        f = draw(st.integers(0, spec.q - 1))
        rows[dst] = [spec.mul_idx(f, v) for v in rows[src]]
    return spec, rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(matrices())
def test_rref_matches_reference(case):
    assert_rref_matches_reference(*case)
