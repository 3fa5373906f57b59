from __future__ import annotations

import itertools
import random
import re

import dataclasses
import gc
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_random_code

from zetacode import linear_code
from zetacode.enumerator import WeightEnumerator
from zetacode.gf import GF
from zetacode.linear_code import (
    BudgetExceededError,
    LinearCode,
    Matrix,
    _gram,
    _weight_blocks,
    distance_distribution,
    dual,
    genus,
    is_degenerate,
    is_formally_self_dual,
    is_self_dual,
    is_self_orthogonal,
    min_distance,
    parse_matrix_text,
    puncture_degenerate,
    rref,
    weight_distribution,
)

F2 = GF(2)
F3 = GF(3)


def code(q, rows) -> LinearCode:
    return LinearCode(Matrix.from_indices(GF(q), rows))


I2 = [[1, 1]]
TETRA = [[1, 1, 1, 0], [0, 1, 2, 1]]
HAMMING8 = [
    [1, 0, 0, 0, 0, 1, 1, 1],
    [0, 1, 0, 0, 1, 0, 1, 1],
    [0, 0, 1, 0, 1, 1, 0, 1],
    [0, 0, 0, 1, 1, 1, 1, 0],
]
FSD10 = [
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
    [1, 0, 0, 0, 1, 1, 1, 0, 0, 0],
    [0, 1, 0, 0, 1, 1, 0, 1, 0, 0],
    [0, 0, 1, 0, 1, 0, 1, 0, 1, 0],
]


# -- rref ------------------------------------------------------------------


def test_rref_identity_fixed_point():
    m = Matrix.from_indices(F2, [[1, 0], [0, 1]])
    red, rank, pivots = rref(m)
    assert red.index_rows() == [[1, 0], [0, 1]]
    assert rank == 2 and pivots == (0, 1)


def test_rref_rank_deficient():
    m = Matrix.from_indices(F2, [[1, 1], [1, 1]])
    red, rank, pivots = rref(m)
    assert red.index_rows() == [[1, 1], [0, 0]]
    assert rank == 1 and pivots == (0,)


def test_rref_tetra_rank():
    _, rank, _ = rref(Matrix.from_indices(F3, TETRA))
    assert rank == 2


def reference_rref(spec, rows):
    """Gauss-Jordan elimination row by row with FieldSpec index arithmetic:
    (reduced rows, rank, pivot columns)."""
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv_p = spec.inv_idx(rows[r][c])
        rows[r] = [spec.mul_idx(inv_p, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [spec.sub_idx(vi, spec.mul_idx(f, vr)) for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, r, tuple(pivots)


def assert_rref_matches_reference(spec, rows):
    red, rank, pivots = rref(Matrix.from_indices(spec, rows))
    assert (red.index_rows(), rank, pivots) == reference_rref(spec, rows)


def test_rref_matches_reference_on_corpus(unit_corpus):
    for c in unit_corpus:
        assert_rref_matches_reference(c.spec, c.gen.index_rows())


def assert_random_rrefs_match_reference(spec, rng, draws, max_rows, max_cols):
    """``draws`` random matrices of up to max_rows x max_cols, and for each
    a rank-deficient one with twice the rows and a zero first column, all
    against the reference; returns how many of the random ones had full
    row rank."""
    q = spec.q
    full_rank = 0
    for _ in range(draws):
        nrows, ncols = rng.randrange(1, max_rows + 1), rng.randrange(1, max_cols + 1)
        rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        assert_rref_matches_reference(spec, rows)
        full_rank += rref(Matrix.from_indices(spec, rows))[1] == nrows
        # rank-deficient: append row + f * (first row) for each row, zero out a column
        combo = []
        for row in rows:
            f = rng.randrange(q)
            combo.append([spec.add_idx(spec.mul_idx(f, a), b) for a, b in zip(rows[0], row)])
        deficient = [[0] + row[1:] for row in rows + combo]
        assert_rref_matches_reference(spec, deficient)
        _, rank, _ = rref(Matrix.from_indices(spec, deficient))
        assert rank < len(deficient)
    return full_rank


# 243 and 256 keep uint8 tables, 512 and 1024 take uint16 ones; from 256 on
# a flat index x q + y passes 2^16
@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 27, 243, 256, 512, 1024])
def test_rref_matches_reference_on_random_matrices(q):
    spec = GF(q)
    rng = random.Random(q)
    assert assert_random_rrefs_match_reference(spec, rng, 30, 8, 12) >= 10
    # up to 17 x 29, the largest generator of the enumerate benchmark
    assert assert_random_rrefs_match_reference(spec, rng, 6, 17, 29) >= 1
    rows = [[rng.randrange(q) for _ in range(29)] for _ in range(17)]
    assert_rref_matches_reference(spec, rows)
    red, rank, pivots = rref(Matrix.from_indices(spec, [[0] * 5] * 3))
    assert (red.index_rows(), rank, pivots) == ([[0] * 5] * 3, 0, ())
    # a zero first column, then row 1 = f row 0 + row 2: the zero row goes
    # last, after the pivot rows
    rows = [[0] + [rng.randrange(q) for _ in range(9)] for _ in range(4)]
    assert_rref_matches_reference(spec, rows)
    f = rng.randrange(1, q)
    rows[1] = [spec.add_idx(spec.mul_idx(f, a), b) for a, b in zip(rows[0], rows[2])]
    assert_rref_matches_reference(spec, rows)
    red, rank, pivots = rref(Matrix.from_indices(spec, rows))
    assert pivots[0] > 0 and rank == 3 and red.index_rows()[3] == [0] * 10


def test_matrix_from_indices_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged"):
        Matrix.from_indices(F2, [[1, 0], [1]])


@pytest.mark.parametrize("bad", [2, -1, 2**70])
def test_matrix_from_indices_rejects_out_of_range(bad):
    with pytest.raises(ValueError, match="out of range"):
        Matrix.from_indices(F2, [[1, 0], [0, bad]])


def test_matrix_array_is_read_only():
    rows = [[1, 0], [0, 1]]
    m = Matrix.from_indices(F2, rows)
    with pytest.raises(ValueError):
        m.array[0, 0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.array = np.zeros((2, 2), dtype=np.int64)
    assert (m.rows, m.cols) == (2, 2) and m.index_rows() == rows


def test_dependent_generator_rows_rejected():
    with pytest.raises(ValueError, match="dependent"):
        code(2, [[1, 1], [1, 1]])


@pytest.mark.parametrize(
    "q, rows",
    [
        (3, [[1, 0, 1, 2], [2, 0, 2, 1]]),  # row 2 = 2 row 1, n - k > k
        (2, [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]]),  # row 3 = rows 1 + 2, n - k < k
    ],
)
def test_full_rank_code_on_dependent_rows_fails_its_rank_checks(q, rows, rref_calls):
    # built without the rank check, as grs_code and elliptic_code build theirs
    c = LinearCode._full_rank(Matrix.from_indices(GF(q), rows))
    assert not rref_calls
    with pytest.raises(RuntimeError, match="generator rows are dependent"):
        weight_distribution(c)
    with pytest.raises(RuntimeError, match="generator rows are dependent"):
        dual(c)


# -- distributions -----------------------------------------------------------


def test_weight_distribution_i2():
    assert weight_distribution(code(2, I2)).nums == (1, 0, 1)


def test_weight_distribution_tetra():
    assert weight_distribution(code(3, TETRA)).nums == (1, 0, 0, 8, 0)


def test_weight_distribution_formally_self_dual_10():
    c = code(2, FSD10)
    expected = (1, 0, 0, 0, 15, 0, 15, 0, 0, 0, 1)
    assert weight_distribution(c).nums == expected
    assert weight_distribution(dual(c)).nums == expected
    assert is_formally_self_dual(c)
    assert not is_self_dual(c)


def test_formally_self_dual_false_without_enumerating_unless_2k_equals_n():
    c = make_random_code(random.Random(64), 2, 64, 6)
    assert not is_formally_self_dual(c, budget=1)


def test_distance_distribution_examples():
    assert distance_distribution(code(2, I2)).nums == (1, 0, 1)
    assert distance_distribution(code(3, TETRA)).nums == (1, 0, 0, 8, 0)


def test_distance_equals_weight_on_corpus(unit_corpus):
    for c in unit_corpus:
        if c.spec.q ** (2 * c.k) <= 2**22:
            assert distance_distribution(c, 2**22) == weight_distribution(c)


def test_counts_sum_to_qk(unit_corpus):
    for c in unit_corpus:
        assert weight_distribution(c).total() == c.spec.q**c.k


def reference_codewords(c: LinearCode):
    """Every codeword in message-lex order, by plain FieldSpec index
    arithmetic: the word of each message extends the stored partial sum
    of the message prefix it shares with the previous message."""
    spec, q = c.spec, c.spec.q
    add = [[spec.add_idx(a, b) for b in range(q)] for a in range(q)]
    multiples = [
        [[spec.mul_idx(coef, g) for g in row] for coef in range(q)]
        for row in c.gen.index_rows()
    ]
    partial = [[0] * c.n]  # partial[j]: sum over the first j message digits
    previous = None
    for msg in itertools.product(range(q), repeat=c.k):
        start = 0 if previous is None else next(j for j in range(c.k) if msg[j] != previous[j])
        del partial[start + 1 :]
        for j in range(start, c.k):
            partial.append([add[a][b] for a, b in zip(partial[j], multiples[j][msg[j]])])
        previous = msg
        yield partial[-1]


def reference_span(c: LinearCode, first: int, stop: int) -> list[list[int]]:
    """The words sum_j m_j G[first + j] for every message m over rows
    first .. stop - 1, message-lex order, by FieldSpec scalar arithmetic."""
    spec, rows = c.spec, c.gen.index_rows()[first:stop]
    words = []
    for msg in itertools.product(range(spec.q), repeat=len(rows)):
        word = [0] * c.n
        for m, row in zip(msg, rows):
            word = [spec.add_idx(w, spec.mul_idx(m, g)) for w, g in zip(word, row)]
        words.append(word)
    return words


# (q, n, k) with q^k small enough for the scalar reference; 256 and 512
# are the largest field with uint8 tables and the smallest with uint16
# ones, and the k = 1 code has an empty high half
@pytest.mark.parametrize("q, n, k", [(2, 9, 5), (3, 7, 4), (4, 6, 3), (9, 5, 2),
                                     (256, 4, 2), (512, 3, 1)])
def test_span_matches_scalar_reference(q, n, k):
    c = make_random_code(random.Random(q), q, n, k)
    for first in range(k + 1):
        for stop in range(first, k + 1):
            span = linear_code._span(c, first, stop)
            assert span.dtype == c.spec.tables.mul.dtype
            assert span.tolist() == reference_span(c, first, stop)


def reference_distribution(words, n: int) -> tuple[int, ...]:
    counts = [0] * (n + 1)
    for w in words:
        counts[n - w.count(0)] += 1
    return tuple(counts)


def assert_matches_reference(c: LinearCode):
    words = list(reference_codewords(c))
    assert linear_code._span(c, 0, c.k).tolist() == words
    assert weight_distribution(c).nums == reference_distribution(words, c.n)


def test_kernel_matches_reference_on_corpus(unit_corpus):
    for c in unit_corpus:
        assert_matches_reference(c)


def assert_kernel_matches_reference(q, n, k):
    assert_matches_reference(make_random_code(random.Random(q * 100 + n), q, n, k))


def high_word_blocks(c: LinearCode) -> list[tuple[int, int]]:
    """The (high words, low words) shape of each block the kernel yields."""
    return [w.shape for w in _weight_blocks(c, c.spec.q**c.k)]


@pytest.mark.parametrize("q, n, k", [(2, 20, 17), (3, 14, 11)])
def test_kernel_matches_reference_with_split_message_digits(q, n, k):
    c = make_random_code(random.Random(q * 100 + n), q, n, k)
    assert len(high_word_blocks(c)) > 1  # more than one chunk of high words
    assert_matches_reference(c)


@pytest.mark.parametrize("cells", [180, 360])
def test_kernel_matches_reference_when_the_last_chunk_is_short(monkeypatch, cells):
    # [10, 4]_3: 9 high words against 9 low words of 10 coordinates each,
    # 2 or 4 high words per chunk
    monkeypatch.setattr(linear_code, "_CELLS", cells)
    c = make_random_code(random.Random(cells), 3, 10, 4)
    shapes = high_word_blocks(c)
    assert len(shapes) >= 3 and shapes[-1][0] < shapes[0][0]
    assert sum(h * l for h, l in shapes) == 3**4
    assert_matches_reference(c)


@pytest.mark.parametrize("q", [243, 256, 512])
def test_kernel_matches_reference_at_dtype_boundary(q):
    # uint8 entries up to GF(256), uint16 from GF(512)
    assert_kernel_matches_reference(q, 3, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9, 256])
def test_one_digit_code_has_zero_high_span(q):
    # k = 1: no high digit, so one block of a single high word, the zero word
    c = make_random_code(random.Random(q), q, 5, 1)
    assert high_word_blocks(c) == [(1, q)]
    assert_matches_reference(c)


@pytest.mark.parametrize("q, n", [(3, 9), (4, 8)])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_kernel_matches_reference_for_odd_and_even_k(q, n, k):
    assert_matches_reference(make_random_code(random.Random(q * 100 + n * 10 + k), q, n, k))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [255, 256, 257])
def test_kernel_matches_reference_at_weight_counter_boundary(q, n):
    # weights are counted in uint8 up to n = 255 and in uint16 from 256; the
    # all-ones row puts words of full weight n in the code
    rng = random.Random(n)
    c = code(q, [[1] * n] + [[rng.randrange(q) for _ in range(n)] for _ in range(3)])
    assert weight_distribution(c).nums[n] > 0
    assert_matches_reference(c)


@pytest.mark.parametrize("q, n, k", [(2, 20, 18), (3, 14, 12), (5, 10, 8)])
def test_enumeration_leaves_no_cyclic_garbage(q, n, k):
    # more than one chunk of high words; characteristic 2 adds by XOR, odd q
    # through the flat add table
    c = make_random_code(random.Random(q * 100 + n), q, n, k)
    assert len(high_word_blocks(c)) > 1
    c.spec.tables  # built outside the measured region
    gc.collect()
    gc.disable()
    try:
        weight_distribution(c, budget=q**k)
        linear_code._span(c, 0, k)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_budget_enforced():
    c = code(2, HAMMING8)
    with pytest.raises(BudgetExceededError):
        weight_distribution(c, budget=8)
    with pytest.raises(BudgetExceededError):
        distance_distribution(c, budget=255)


def test_budget_checked_before_any_span(monkeypatch):
    spans = []
    monkeypatch.setattr(linear_code, "_span", lambda *args: spans.append(args))
    c = code(2, HAMMING8)
    message = "[8, 4]_2 code has 16 words, over budget 15"
    with pytest.raises(BudgetExceededError, match=re.escape(message)):
        weight_distribution(c, budget=15)
    with pytest.raises(BudgetExceededError, match="q\\^2k = 256 exceeds budget 255"):
        distance_distribution(c, budget=255)
    assert spans == []


# -- parameters --------------------------------------------------------------


def test_hamming_parameters():
    c = code(2, HAMMING8)
    assert weight_distribution(c).nums == (1, 0, 0, 0, 14, 0, 0, 0, 1)
    assert min_distance(c) == 4
    assert genus(c) == 1


def test_tetra_is_mds():
    c = code(3, TETRA)
    assert min_distance(c) == 3
    assert genus(c) == 0


def test_repetition_genus_zero():
    for n in (2, 3, 5):
        c = code(2, [[1] * n])
        assert min_distance(c) == n
        assert genus(c) == 0


def test_singleton_bound_on_corpus(unit_corpus):
    for c in unit_corpus:
        assert min_distance(c) <= c.n - c.k + 1


def test_mds_iff_dual_mds(unit_corpus):
    for c in unit_corpus:
        dc = dual(c)
        if dc.is_zero:
            continue
        assert (genus(c) == 0) == (genus(dc) == 0)


# -- dual --------------------------------------------------------------------


def test_i2_self_dual():
    c = code(2, I2)
    assert is_self_dual(c)
    assert dual(c).gen.index_rows() == [[1, 1]]


def test_dual_of_full_space_is_zero_code():
    c = code(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    z = dual(c)
    assert z.is_zero and z.k == 0 and z.n == 3
    back = dual(z)
    assert back.k == 3


def test_zero_code_rejected_by_distribution_ops():
    z = LinearCode.zero(F2, 3)
    with pytest.raises(ValueError, match="zero code"):
        weight_distribution(z)
    with pytest.raises(ValueError, match="zero code"):
        min_distance(z)


def test_hamming_dual_is_itself():
    c = code(2, HAMMING8)
    assert is_self_dual(c)
    assert is_self_orthogonal(c)
    assert weight_distribution(dual(c)).nums == weight_distribution(c).nums


def test_generator_times_dual_transpose(unit_corpus):
    for c in unit_corpus:
        dc = dual(c)
        g, h = c.gen.array, dc.gen.array
        gram = _gram(c.spec, g, h)
        assert gram.shape == (c.k, c.n - c.k) and not gram.any()
        # a nonzero entry in a pivot column of H moves it off the dual
        perturbed = h.copy()
        col = c._echelon[1][0]
        perturbed[0, col] = c.spec.add_idx(int(h[0, col]), 1)
        assert _gram(c.spec, g, perturbed).any()


def _gram_by_columns(spec, a, b):
    """A B^T one column at a time through the add and mul tables."""
    tab = spec.tables
    acc = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    for c in range(a.shape[1]):
        acc = tab.add[acc, tab.mul[a[:, c, None], b[None, :, c]]]
    return acc


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_gram_equals_column_loop_across_blocks(q, monkeypatch):
    spec = GF(q)
    rng = np.random.default_rng(q)
    # 300 cells per row of A against B: blocks of 3 rows, the last one short
    monkeypatch.setattr(linear_code, "_CELLS", 1000)
    for rows_a, rows_b, n in ((10, 15, 20), (1, 1, 1), (7, 0, 5), (0, 4, 6), (4, 60, 30)):
        a = rng.integers(0, q, (rows_a, n))
        b = rng.integers(0, q, (rows_b, n))
        got = _gram(spec, a, b)
        assert got.dtype == np.int64
        assert np.array_equal(got, _gram_by_columns(spec, a, b))


def test_gram_blocks_keep_temporaries_small():
    import tracemalloc

    spec = GF(4)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 4, (48, 400))
    b = rng.integers(0, 4, (352, 400))  # 6.8M products in all
    want = _gram_by_columns(spec, a, b)
    tracemalloc.start()
    try:
        got = _gram(spec, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 8 * linear_code._CELLS


def test_dual_makes_no_rref_call(unit_corpus, rref_calls):
    for c in unit_corpus:
        d = dual(c)
        assert not rref_calls and d.k == c.n - c.k
    # the dual's own RREF is computed on first read, and equals a fresh one
    red, rank, pivots = rref(d.gen)
    assert d._echelon[0].index_rows() == red.index_rows() and rank == d.k
    assert len(rref_calls) == 1


def test_punctured_code_keeps_the_rref_without_a_second_one(unit_corpus, rref_calls):
    # zero columns in front and after the first coordinate of each code
    for c in unit_corpus:
        rows = [[0] + r[:1] + [0, 0] + r[1:] for r in c.gen.index_rows()]
        padded = code(c.spec.q, rows)
        del rref_calls[:]
        p = puncture_degenerate(padded)
        assert not rref_calls
        red, rank, pivots = rref(p.gen)
        assert p._echelon[0].index_rows() == red.index_rows()
        assert p._echelon[1] == pivots and rank == p.k
        if not is_degenerate(c):
            assert p.gen.index_rows() == c.gen.index_rows()
    assert not rref_calls


def test_dual_leaves_numpy_ma_unimported():
    # np.setdiff1d goes through np.unique, whose first call imports numpy.ma
    # (about 11 ms and 1 MB resident); a fresh process shows whether dual does
    script = (
        "import sys\n"
        "from zetacode.gf import GF\n"
        "from zetacode.linear_code import LinearCode, Matrix, dual\n"
        "d = dual(LinearCode(Matrix.from_indices(GF(3), [[1, 0, 2, 1], [0, 1, 1, 2]])))\n"
        "print(d.gen.index_rows(), 'numpy.ma' in sys.modules)\n"
    )
    src = str(pathlib.Path(linear_code.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[[1, 2, 1, 0], [2, 1, 0, 1]] False\n"


def test_dual_dual_row_space(unit_corpus):
    for c in unit_corpus:
        dd = dual(dual(c))
        assert dd._echelon[0].index_rows() == c._echelon[0].index_rows()


# a Euclidean self-dual [6,3,3] code over GF(4)
GF4_SELF_DUAL = [[1, 0, 0, 0, 2, 3], [0, 1, 0, 2, 2, 1], [0, 0, 1, 3, 1, 3]]


def reference_is_self_dual(c: LinearCode) -> bool:
    """The code and its dual have the same reduced generator matrix."""
    return 2 * c.k == c.n and np.array_equal(c._echelon[0].array, dual(c)._echelon[0].array)


def test_is_self_dual_matches_rref_reference(unit_corpus):
    known = [code(2, HAMMING8), code(3, TETRA), code(4, GF4_SELF_DUAL), code(2, I2)]
    for c in known:
        assert is_self_dual(c) and reference_is_self_dual(c)
    # [n, n/2] codes that are not self-orthogonal, and self-orthogonal
    # codes of the wrong dimension
    near = [code(2, FSD10), code(2, [[1, 1, 0, 0]]), code(3, [[1, 1, 1, 0, 0, 0]])]
    for c in list(unit_corpus) + near:
        assert is_self_dual(c) == reference_is_self_dual(c)
    assert not any(is_self_dual(c) for c in near)


def test_pairwise_self_dual_example():
    c = code(2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert is_self_dual(c)


# -- degeneracy ---------------------------------------------------------------


def test_degenerate_code_punctured():
    c = code(2, [[1, 1, 0]])
    assert is_degenerate(c)
    p = puncture_degenerate(c)
    assert (p.n, p.k) == (2, 1)
    assert weight_distribution(p).nums == (1, 0, 1)


def test_non_degenerate_cases():
    assert not is_degenerate(code(2, I2))
    assert not is_degenerate(code(2, HAMMING8))
    # dual of the extended Hamming code has no weight-1 word
    assert weight_distribution(dual(code(2, HAMMING8))).nums[1] == 0


def test_puncture_zero_code_rejected():
    with pytest.raises(ValueError):
        puncture_degenerate(LinearCode.zero(F2, 3))


def test_puncture_preserves_enumerator_shape():
    c = code(2, [[1, 1, 0, 0], [0, 1, 1, 0]])
    assert is_degenerate(c)
    p = puncture_degenerate(c)
    wc, wp = weight_distribution(c), weight_distribution(p)
    # x^r scaling: counts agree index by index up to the removed columns
    assert wc.nums[: p.n + 1] == wp.nums


# -- matrix text format --------------------------------------------------------


def test_matrix_round_trip():
    c = code(3, TETRA)
    back = parse_matrix_text("3 4 2\n1 1 1 0\n0 1 2 1\n")
    assert back.gen.index_rows() == c.gen.index_rows()
    assert (back.n, back.k, back.spec.q) == (4, 2, 3)


def test_matrix_parse_errors_name_position():
    with pytest.raises(ValueError, match="line 1"):
        parse_matrix_text("2 4\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_matrix_text("2 4 2\n1 0 1\n0 1 1 1\n")
    with pytest.raises(ValueError, match="line 3, column 2"):
        parse_matrix_text("2 4 2\n1 0 1 1\n0 x 1 1\n")
    with pytest.raises(ValueError, match="line 2, column 4"):
        parse_matrix_text("3 4 1\n1 0 1 3\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_matrix_text("2 2 2\n1 0\n")
    with pytest.raises(ValueError, match="line 3: unexpected extra row"):
        parse_matrix_text("2 3 1\n1 1 1\n0 1 1\n")
    with pytest.raises(ValueError, match="line 1: non-integer header field"):
        parse_matrix_text("2 x 1\n1 1 1\n")


def test_weight_distribution_type_checks():
    with pytest.raises(ValueError):
        WeightEnumerator(2, (1, 0))
