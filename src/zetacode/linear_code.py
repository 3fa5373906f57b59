"""Linear codes over GF(q): generator matrices, duals, and exhaustive
weight and distance statistics.

Codewords come from one generator of message-lex blocks, at one field
addition per word and coordinate, with counts merged per block: results
are deterministic and the working set small.  The distance distribution
shares the generator; it checks weight counting, not enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import GF, FieldElement, FieldSpec

DEFAULT_BUDGET = 2**24
_CHUNK = 1 << 16


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its codeword budget."""


@dataclass(frozen=True)
class Matrix:
    """A dense row-major matrix over one field."""

    spec: FieldSpec
    rows: int
    cols: int
    entries: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"matrix needs {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if e.spec != self.spec:
                raise ValueError("matrix entry from a different field")

    @classmethod
    def from_indices(cls, spec: FieldSpec, rows_of_indices) -> "Matrix":
        rows = [list(r) for r in rows_of_indices]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(FieldElement(spec, int(v)) for r in rows for v in r)
        return cls(spec, nrows, ncols, flat)

    def index_rows(self) -> list[list[int]]:
        return [
            [self.entries[r * self.cols + c].index for c in range(self.cols)]
            for r in range(self.rows)
        ]

    def index_array(self) -> np.ndarray:
        a = np.fromiter(
            (e.index for e in self.entries), dtype=np.int64, count=len(self.entries)
        )
        return a.reshape(self.rows, self.cols)


def rref(mat: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row-echelon form over GF(q); returns (rref, rank, pivot cols)."""
    spec = mat.spec
    rows = mat.index_rows()
    nrows, ncols = mat.rows, mat.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv_p = spec.inv_idx(rows[r][c])
        if inv_p != 1:
            rows[r] = [spec.mul_idx(inv_p, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [
                    spec.sub_idx(vi, spec.mul_idx(f, vr))
                    for vi, vr in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
    return Matrix.from_indices(spec, rows), r, tuple(pivots)


class LinearCode:
    """A linear [n, k] code given by a full-row-rank generator matrix.

    The k = 0 zero code exists only as the output of :func:`dual` or
    :func:`puncture_degenerate`; it cannot be built directly and the
    distribution operations reject it.
    """

    def __init__(self, gen: Matrix):
        if gen.rows < 1:
            raise ValueError("a linear code needs at least one generator row")
        if gen.cols < gen.rows:
            raise ValueError(f"dimension {gen.rows} exceeds length {gen.cols}")
        red, rank, pivots = rref(gen)
        if rank != gen.rows:
            raise ValueError(
                f"generator rows are dependent: rank {rank} < {gen.rows} rows"
            )
        self.spec: FieldSpec = gen.spec
        self.gen: Matrix = gen
        self.n: int = gen.cols
        self.k: int = gen.rows
        self._rref = red
        self._pivots = pivots

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "LinearCode":
        code = object.__new__(cls)
        code.spec = spec
        code.gen = Matrix(spec, 0, n, ())
        code.n = n
        code.k = 0
        code._rref = code.gen
        code._pivots = ()
        return code

    @property
    def is_zero(self) -> bool:
        return self.k == 0

    def rref_matrix(self) -> Matrix:
        return self._rref

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearCode[n={self.n}, k={self.k}, q={self.spec.q}]"


@dataclass(frozen=True)
class WeightDistribution:
    """Exact counts (A_0, ..., A_n) of words of each Hamming weight."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError(f"need {self.n + 1} counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count in weight distribution")

    @property
    def min_distance(self) -> int | None:
        for i in range(1, self.n + 1):
            if self.counts[i]:
                return i
        return None

    def total(self) -> int:
        return sum(self.counts)


def _require_regular(code: LinearCode, what: str) -> None:
    if code.is_zero:
        raise ValueError(f"{what} is not defined for the zero code")


def _codeword_blocks(code: LinearCode, budget: int):
    """Yield the q^k codewords in message-lex order, as (rows, n) blocks:
    the words of the last t digits (q^t <= _CHUNK), built by doubling, plus
    one offset row sum_j c_j G[j] of the first k - t digits.  Entries use
    the narrowest unsigned dtype; in characteristic 2, index addition is XOR."""
    q, k, n = code.spec.q, code.k, code.n
    if q**k > budget:
        raise BudgetExceededError(f"q^k = {q**k} exceeds budget {budget}")
    tab = code.spec.tables
    dtype = np.min_scalar_type(q - 1)
    G = code.gen.index_array()
    mult = tab.mul[np.arange(q)[:, None, None], G[None, :, :]].astype(dtype)  # (q, k, n)
    if code.spec.p == 2:
        add = np.bitwise_xor
    else:  # a take on the flat table is about twice as fast as tab.add[a, b]
        flat = tab.add.astype(dtype).ravel()
        wide = np.min_scalar_type(q * q - 1)

        def add(small, big):
            return np.take(flat, small.astype(wide) * q + big)

    t = next(t for t in range(k, -1, -1) if q**t <= _CHUNK)
    low = np.zeros((1, n), dtype=dtype)
    for j in range(k - 1, k - 1 - t, -1):
        low = add(mult[:, j, None, :], low[None, :, :]).reshape(-1, n)

    def blocks(j, offset):
        if j == k - t:
            yield add(offset, low) if offset.any() else low
        else:
            for row in mult[:, j]:
                yield from blocks(j + 1, add(offset, row))

    yield from blocks(0, np.zeros(n, dtype=dtype))


def _codeword_matrix(code: LinearCode, budget: int) -> np.ndarray:
    """All q^k codewords as an (q^k, n) index array, message-lex order."""
    return np.concatenate(list(_codeword_blocks(code, budget)))


def weight_distribution(code: LinearCode, budget: int = DEFAULT_BUDGET) -> WeightDistribution:
    """Exact weight counts by full enumeration of the q^k codewords."""
    _require_regular(code, "the weight distribution")
    n = code.n
    counts = np.zeros(n + 1, dtype=np.int64)
    for block in _codeword_blocks(code, budget):
        counts += np.bincount(np.count_nonzero(block, axis=1), minlength=n + 1)
    return WeightDistribution(n, tuple(int(c) for c in counts))


def distance_distribution(code: LinearCode, budget: int = DEFAULT_BUDGET) -> WeightDistribution:
    """Counts B_i over all ordered codeword pairs, divided by q^k.

    Enumerates the q^(2k) pairs directly (within budget); for a linear code
    the result equals the weight distribution, which tests exploit as an
    independent oracle.
    """
    _require_regular(code, "the distance distribution")
    q, k, n = code.spec.q, code.k, code.n
    if q ** (2 * k) > budget:
        raise BudgetExceededError(f"q^2k = {q ** (2 * k)} exceeds budget {budget}")
    words = _codeword_matrix(code, budget)
    total = words.shape[0]
    counts = np.zeros(n + 1, dtype=np.int64)
    for i in range(total):
        d = np.count_nonzero(words != words[i], axis=1)
        counts += np.bincount(d, minlength=n + 1)
    out = []
    for c in counts:
        c = int(c)
        if c % total:
            raise RuntimeError("pair counts not divisible by q^k; code is not linear")
        out.append(c // total)
    return WeightDistribution(n, tuple(out))


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    _require_regular(code, "the minimum distance")
    d = weight_distribution(code, budget).min_distance
    if d is None:
        raise RuntimeError("nonzero code with no nonzero word")
    return d


def genus(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """n + 1 - k - d, the defect against the Singleton bound."""
    return code.n + 1 - code.k - min_distance(code, budget)


def dual(code: LinearCode) -> LinearCode:
    """The dual code; the full space dualizes to the zero code and back."""
    spec, n = code.spec, code.n
    if code.is_zero:
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return LinearCode(Matrix.from_indices(spec, ident))
    if code.k == n:
        return LinearCode.zero(spec, n)
    red = code._rref.index_rows()
    pivots = code._pivots
    free = [c for c in range(n) if c not in set(pivots)]
    rows = []
    for f in free:
        h = [0] * n
        h[f] = 1
        for i, p in enumerate(pivots):
            h[p] = spec.neg_idx(red[i][f])
        rows.append(h)
    return LinearCode(Matrix.from_indices(spec, rows))


def is_degenerate(code: LinearCode) -> bool:
    """True when some coordinate is zero on every codeword."""
    _require_regular(code, "degeneracy")
    return bool((code.gen.index_array() == 0).all(axis=0).any())


def puncture_degenerate(code: LinearCode) -> LinearCode:
    """Delete every identically-zero coordinate; no-op when there is none."""
    if code.is_zero:
        raise ValueError("cannot puncture the zero code")
    arr = code.gen.index_array()
    keep = [c for c in range(code.n) if arr[:, c].any()]
    if len(keep) == code.n:
        return code
    if not keep:
        raise ValueError("cannot puncture a code with no nonzero coordinate")
    rows = [[int(arr[r, c]) for c in keep] for r in range(code.k)]
    return LinearCode(Matrix.from_indices(code.spec, rows))


def is_self_orthogonal(code: LinearCode) -> bool:
    _require_regular(code, "self-orthogonality")
    spec = code.spec
    rows = code.gen.index_rows()
    for u in rows:
        for v in rows:
            s = 0
            for a, b in zip(u, v):
                s = spec.add_idx(s, spec.mul_idx(a, b))
            if s != 0:
                return False
    return True


def is_self_dual(code: LinearCode) -> bool:
    _require_regular(code, "self-duality")
    if 2 * code.k != code.n:
        return False
    return code._rref.index_rows() == dual(code)._rref.index_rows()


def is_formally_self_dual(code: LinearCode, budget: int = DEFAULT_BUDGET) -> bool:
    """Equal weight distributions of the code and its dual; unless 2k = n
    their totals q^k and q^(n-k) differ, and nothing is enumerated."""
    _require_regular(code, "formal self-duality")
    if 2 * code.k != code.n:
        return False
    return weight_distribution(code, budget) == weight_distribution(dual(code), budget)


# -- matrix text format -------------------------------------------------
#
# line 1:            q n k
# lines 2 .. k+1:    n whitespace-separated element indices


def parse_matrix_text(text: str) -> LinearCode:
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise ValueError("line 1: expected header 'q n k'")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"line 1: expected 3 header fields 'q n k', found {len(head)}")
    try:
        q, n, k = (int(t) for t in head)
    except ValueError:
        raise ValueError(f"line 1: non-integer header field in {head!r}") from None
    try:
        spec = GF(q)
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None
    if n < 1 or k < 1:
        raise ValueError(f"line 1: need n >= 1 and k >= 1, got n={n} k={k}")
    rows = []
    for r in range(k):
        ln = r + 2
        if ln - 1 >= len(lines):
            raise ValueError(f"line {ln}: missing generator row ({k} expected)")
        toks = lines[ln - 1].split()
        if len(toks) != n:
            raise ValueError(f"line {ln}: expected {n} entries, found {len(toks)}")
        row = []
        for col, tok in enumerate(toks, start=1):
            try:
                v = int(tok)
            except ValueError:
                raise ValueError(f"line {ln}, column {col}: not an integer: {tok!r}") from None
            if not 0 <= v < q:
                raise ValueError(
                    f"line {ln}, column {col}: index {v} out of range for GF({q})"
                )
            row.append(v)
        rows.append(row)
    for extra_ln in range(k + 1, len(lines)):
        if lines[extra_ln].split():
            raise ValueError(f"line {extra_ln + 1}: unexpected extra row")
    return LinearCode(Matrix.from_indices(spec, rows))


def format_matrix_text(code: LinearCode) -> str:
    lines = [f"{code.spec.q} {code.n} {code.k}"]
    for row in code.gen.index_rows():
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
