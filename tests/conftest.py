from __future__ import annotations

import random

import pytest

from zetacode import enumerator, linear_code
from zetacode.gf import GF
from zetacode.linear_code import LinearCode, Matrix

CORPUS_QS = (2, 3, 4, 5, 7, 8, 9)


def make_random_code(rng: random.Random, q: int, n: int, k: int) -> LinearCode:
    """A uniformly random [n, k] code; resamples until the rows are independent."""
    spec = GF(q)
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        try:
            return LinearCode(Matrix.from_indices(spec, rows))
        except ValueError:
            continue


def build_corpus(seed: int, per_q: int, max_words: int) -> list[LinearCode]:
    """Deterministic mixed-parameter corpus with q^k and q^(n-k) <= max_words."""
    codes = []
    for q in CORPUS_QS:
        rng = random.Random(seed * 1000 + q)
        made = 0
        while made < per_q:
            n = rng.randrange(3, 13)
            k = rng.randrange(1, n)
            if q**k > max_words or q ** (n - k) > max_words:
                continue
            codes.append(make_random_code(rng, q, n, k))
            made += 1
    return codes


@pytest.fixture(scope="session")
def unit_corpus() -> list[LinearCode]:
    return build_corpus(seed=7, per_q=6, max_words=2**12)


@pytest.fixture()
def rref_calls(monkeypatch) -> list[int]:
    """The row count of every matrix given to ``linear_code.rref``, the
    function that ``LinearCode`` calls for its rank check."""
    calls = []
    reduce = linear_code.rref

    def counted(mat):
        calls.append(mat.rows)
        return reduce(mat)

    monkeypatch.setattr(linear_code, "rref", counted)
    return calls


@pytest.fixture()
def transform_log(monkeypatch) -> list[tuple]:
    """(coefficients, q) of every MacWilliams substitution actually expanded,
    as opposed to one returned from the copy kept on its enumerator."""
    log = []
    expand = enumerator._substitute

    def counted(enum, q):
        log.append((enum.coeffs, q))
        return expand(enum, q)

    monkeypatch.setattr(enumerator, "_substitute", counted)
    return log
