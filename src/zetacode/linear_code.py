"""Linear codes over GF(q): generator matrices, duals, and exhaustive
weight and distance statistics.

Row reduction swaps no rows and costs a fixed handful of whole-matrix
gathers per pivot: one from a row of the ``mul`` table scales the pivot
row, and one from each of the flattened ``mul`` and ``add`` tables, at
indices x q + y, clears the pivot column in every row; the rows are put
in order once, at the end.

One weight-counting kernel serves every q.  The message digits split in
two halves.  One gather from the ``mul`` table reads every multiple of the
rows of a half, and its span is built by doubling, at one field addition
per word and coordinate.  The weight of each of the q^k codewords is the
number of coordinates where a low-half word and a high-half word differ,
so no field table is read per codeword.  Counts are merged per block of
high words: results are deterministic and the working set small.  The
distance distribution takes the q^k words from the same doubling; it
checks weight counting, not enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .gf import GF, FieldSpec, check_int

DEFAULT_BUDGET = 2**24
_CELLS = 1 << 20  # coordinate comparisons per block of high words


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its codeword budget."""


@dataclass(frozen=True, eq=False)
class Matrix:
    """A dense matrix over one field: a read-only (rows, cols) int64 array
    of element indices, copied from an integer array (any other dtype is refused)."""

    spec: FieldSpec
    array: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.array)
        if arr.dtype.kind not in "iu":
            raise TypeError(f"matrix indices must have an integer dtype, got {arr.dtype}")
        if arr.ndim != 2:
            raise ValueError(f"matrix needs a 2-D index array, got {arr.ndim}-D")
        if arr.size and (arr.min() < 0 or arr.max() >= self.spec.q):
            raise ValueError(f"matrix index out of range for GF({self.spec.q})")
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @classmethod
    def from_indices(cls, spec: FieldSpec, rows_of_indices) -> "Matrix":
        rows = [[check_int(x, "matrix index") for x in r] for r in rows_of_indices]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        try:
            arr = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
        except OverflowError:
            raise ValueError(f"matrix index out of range for GF({spec.q})") from None
        return cls(spec, arr)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def index_rows(self) -> list[list[int]]:
        return self.array.tolist()


def rref(mat: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row-echelon form over GF(q); returns (rref, rank, pivot cols).

    One pass per column, with no row swaps.  The column is read once, and
    its first nonzero entry in a row not yet used as a pivot picks the
    pivot row, which one gather from a row of the ``mul`` table scales to
    a leading 1.  Every row i then adds -a_ic times the pivot row as two
    gathers over the whole matrix at flat indices x q + y, one from the
    ``mul`` table and one from the ``add`` table (XOR in characteristic 2);
    this clears the pivot row too, and it is written back.  The pivot rows
    in pivot order, then the other rows, all zero by then, are the RREF."""
    spec = mat.spec
    tab, q = spec.tables, spec.q
    a = mat.array.astype(tab.mul.dtype)
    wide = np.min_scalar_type(q * q - 1)
    mul, add = tab.mul.ravel(), tab.add.ravel()
    free = list(range(a.shape[0]))  # rows not yet used as pivots, in order
    used: list[int] = []
    pivots: list[int] = []
    for c in range(a.shape[1]):
        if not free:
            break
        col = a[:, c].tolist()
        r = next((i for i in free if col[i]), None)
        if r is None:
            continue
        inv = int(tab.inv[col[r]])
        row = tab.mul[inv].take(a[r])
        neg_row = row if spec.p == 2 else tab.mul[tab.neg[inv]].take(a[r])
        # row_i - a_ic row_r = row_i + a_ic (-row_r)
        prod = mul.take(np.multiply(a[:, c, None], q, dtype=wide) + neg_row)
        if spec.p == 2:
            a ^= prod
        else:
            idx = np.multiply(a, q, dtype=wide)
            idx += prod
            add.take(idx, out=a)
        a[r] = row
        free.remove(r)
        used.append(r)
        pivots.append(c)
    return Matrix(spec, a[used + free]), len(used), tuple(pivots)


class LinearCode:
    """A linear [n, k] code given by a full-row-rank generator matrix.

    The k = 0 zero code exists only as :meth:`zero` and as the dual of a
    full-space code; it cannot be built from a generator matrix and the
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
        self._set(gen)
        self._echelon = (red, pivots)

    def _set(self, gen: Matrix) -> None:
        self.spec: FieldSpec = gen.spec
        self.gen: Matrix = gen
        self.n: int = gen.cols
        self.k: int = gen.rows

    @classmethod
    def _full_rank(cls, gen: Matrix) -> "LinearCode":
        """A code on rows known to be independent: no rank check, and the
        RREF waits until something reads it."""
        code = object.__new__(cls)
        code._set(gen)
        return code

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "LinearCode":
        return cls._full_rank(Matrix(spec, np.zeros((0, n), dtype=np.int64)))

    @cached_property
    def _echelon(self) -> tuple[Matrix, tuple[int, ...]]:
        """(RREF of the generator, pivot columns)."""
        red, _, pivots = rref(self.gen)
        return red, pivots

    @property
    def is_zero(self) -> bool:
        return self.k == 0

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


def _check_budget(code: LinearCode, budget: int) -> None:
    q, k, n = code.spec.q, code.k, code.n
    if q**k > budget:
        raise BudgetExceededError(f"[{n}, {k}]_{q} code has {q**k} words, over budget {budget}")


def _span(code: LinearCode, first: int, stop: int) -> np.ndarray:
    """The q^(stop - first) words sum_j c_j G[j] over generator rows
    first .. stop - 1, as a (words, n) index array in message-lex order.

    One gather from the ``mul`` table reads every multiple of every row in
    the range.  The span is then built by doubling from the last row, one
    field addition per word and coordinate: XOR of indices in
    characteristic 2, else one take from the flattened ``add`` table at
    x q + y.  An empty range spans the zero word alone.  Entries keep the
    dtype of the field tables (uint8 up to GF(256))."""
    spec, n = code.spec, code.n
    tab = spec.tables
    mults = tab.mul[:, code.gen.array[first:stop]]  # [c, j] = c G[first + j]
    if spec.p == 2:
        add = np.bitwise_xor
    else:
        flat = tab.add.ravel()
        # each multiple x times q: the start of its row in the flat table
        mults = np.multiply(mults, spec.q, dtype=np.min_scalar_type(spec.q**2 - 1))

        def add(small, big):
            return flat.take(small + big)

    span = np.zeros((1, n), dtype=tab.mul.dtype)
    for j in range(stop - first - 1, -1, -1):
        span = add(mults[:, j, None], span[None]).reshape(-1, n)
    return span


def _codeword_matrix(code: LinearCode, budget: int) -> np.ndarray:
    """All q^k codewords as an (q^k, n) index array, message-lex order."""
    _check_budget(code, budget)
    return _span(code, 0, code.k)


def _weight_blocks(code: LinearCode, budget: int):
    """Yield the weights of all q^k codewords, a block of (high words, low
    words) at a time.

    Meet in the middle: every codeword is L[l] - H[h], where L spans the
    last ceil(k/2) generator rows and H the others (H is a subspace, so
    -H = H), and its weight is the number of coordinates where
    L[l] != H[h].  Each word costs one comparison per coordinate and reads
    no field table; the two spans cost O(q^ceil(k/2) n)."""
    _check_budget(code, budget)
    n, k = code.n, code.k
    t = (k + 1) // 2
    low = np.ascontiguousarray(_span(code, k - t, k).T)
    high = _span(code, 0, k - t).T
    step = max(1, _CELLS // (n * low.shape[1]))
    wtype = np.min_scalar_type(n)
    for h in range(0, high.shape[1], step):
        diff = np.not_equal(high[:, h : h + step, None], low[:, None, :])
        yield diff.sum(axis=0, dtype=wtype)


def weight_distribution(code: LinearCode, budget: int = DEFAULT_BUDGET) -> WeightDistribution:
    """Exact weight counts by full enumeration of the q^k codewords."""
    _require_regular(code, "the weight distribution")
    n = code.n
    counts = np.zeros(n + 1, dtype=np.int64)
    for weights in _weight_blocks(code, budget):
        counts += np.bincount(weights.ravel(), minlength=n + 1)
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
    """The dual code; the full space dualizes to the zero code and back.

    From the RREF [I | A] (up to column order) the dual is [-A^T | I]: one
    row per free column, with a 1 there and -A^T on the pivot columns."""
    spec, n, k = code.spec, code.n, code.k
    if code.is_zero:
        return LinearCode._full_rank(Matrix(spec, np.eye(n, dtype=np.int64)))
    if k == n:
        return LinearCode.zero(spec, n)
    red, pivots = code._echelon
    pivots = list(pivots)
    free = np.delete(np.arange(n), pivots)
    h = np.zeros((n - k, n), dtype=np.int64)
    h[np.arange(n - k), free] = 1
    h[:, pivots] = spec.tables.neg[red.array[:, free]].T
    # the identity on the free columns makes the n - k rows independent
    return LinearCode._full_rank(Matrix(spec, h))


def is_degenerate(code: LinearCode) -> bool:
    """True when some coordinate is zero on every codeword."""
    _require_regular(code, "degeneracy")
    return not code.gen.array.any(axis=0).all()


def puncture_degenerate(code: LinearCode) -> LinearCode:
    """Delete every identically-zero coordinate; no-op when there is none."""
    if code.is_zero:
        raise ValueError("cannot puncture the zero code")
    arr = code.gen.array
    keep = arr.any(axis=0)
    if keep.all():
        return code
    # row operations keep a zero column zero: the rows stay independent,
    # and the RREF loses the same columns
    spec = code.spec
    punctured = LinearCode._full_rank(Matrix(spec, arr[:, keep]))
    red, pivots = code._echelon
    renumber = np.cumsum(keep) - 1
    punctured._echelon = (Matrix(spec, red.array[:, keep]), tuple(int(renumber[c]) for c in pivots))
    return punctured


def _gram(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product A B^T over GF(q) of two index arrays with equal column
    counts: entry (i, j) is the inner product of row i of A and row j of B.

    On a prime field an index is its residue, so A B^T is the integer
    product mod p.  Otherwise a block of rows of A gathers every product
    with B from the ``mul`` table at once, and the products are summed
    digit by digit: addition in GF(p^m) adds the base-p digits of the
    indices mod p.  Blocks keep each temporary within ``_CELLS`` cells."""
    p, m = spec.p, spec.m
    if m == 1:  # exact: n (p - 1)^2 is far below 2^63 for every field GF accepts
        return np.matmul(a, b.T, dtype=np.int64) % p
    mul = spec.tables.mul
    out = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    step = max(1, _CELLS // max(1, b.size))
    for i in range(0, a.shape[0], step):
        prod = mul[a[i : i + step, None, :], b[None, :, :]]
        for j in range(m):
            out[i : i + step] += (prod // p**j % p).sum(-1, dtype=np.int64) % p * p**j
    return out


def is_self_orthogonal(code: LinearCode) -> bool:
    _require_regular(code, "self-orthogonality")
    g = code.gen.array
    return not _gram(code.spec, g, g).any()


def is_self_dual(code: LinearCode) -> bool:
    """A self-orthogonal code with 2k = n is contained in its dual and has
    the same dimension, so it equals it."""
    _require_regular(code, "self-duality")
    return 2 * code.k == code.n and is_self_orthogonal(code)


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


def _body_fault(body: list[list[str]], k: int, n: int, q: int) -> str:
    """The message for the first fault of a faulty matrix body, the token
    lists of lines 2 .. k+1, read row by row: a miscounted row, then token
    by token, a non-integer or an index out of range; past the last row
    read, the first missing one."""
    for ln, toks in enumerate(body, start=2):
        if len(toks) != n:
            return f"line {ln}: expected {n} entries, found {len(toks)}"
        for col, tok in enumerate(toks, start=1):
            try:
                v = int(tok)
            except ValueError:
                return f"line {ln}, column {col}: not an integer: {tok!r}"
            if not 0 <= v < q:
                return f"line {ln}, column {col}: index {v} out of range for GF({q})"
    return f"line {len(body) + 2}: missing generator row ({k} expected)"


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
    # the whole body in one conversion and one range check (the Matrix's)
    body = [ln.split() for ln in lines[1 : k + 1]]
    mat = None
    if len(body) == k and all(len(toks) == n for toks in body):
        try:
            flat = np.array(list(map(int, chain.from_iterable(body))), dtype=np.int64)
            mat = Matrix(spec, flat.reshape(k, n))
        except (ValueError, OverflowError):
            pass
    if mat is None:
        raise ValueError(_body_fault(body, k, n, q))
    for extra_ln in range(k + 1, len(lines)):
        if lines[extra_ln].split():
            raise ValueError(f"line {extra_ln + 1}: unexpected extra row")
    return LinearCode(mat)
