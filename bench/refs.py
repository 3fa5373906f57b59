"""Independent references for checking zetacode reports.

Nothing here imports zetacode.  Field arithmetic, codeword enumeration,
the MacWilliams transform, MDS enumerators, curve point counts and the
divisor-counting oracle are re-derived from the textbook formulas, so a
report is checked against mathematics rather than against a stored copy
of an earlier run.

Field elements use the encoding the zetacode file formats document: the
index of an element of GF(p^m) is its polynomial representative read as
little-endian base-p digits, reduced by a fixed monic irreducible modulus
(t^2+t+1 for GF(4), t^3+t+1 for GF(8), t^2+1 for GF(9), otherwise the
least irreducible in that digit order).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

_PINNED = {(2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (3, 2): (1, 0, 1)}


def prime_power(q: int) -> tuple[int, int]:
    p = 2
    while q % p:
        p += 1
    m, r = 0, q
    while r % p == 0:
        r //= p
        m += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def _digits(x: int, p: int, m: int) -> list[int]:
    return [(x // p**j) % p for j in range(m)]


def _poly_mulmod(a, b, mod, p):
    m = len(mod) - 1
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i]
        if c:
            for j in range(m + 1):
                prod[i - m + j] = (prod[i - m + j] - c * mod[j]) % p
    return prod[:m]


def _irreducible(mod, p) -> bool:
    """Trial division by every monic polynomial of degree <= m/2."""
    m = len(mod) - 1
    for deg in range(1, m // 2 + 1):
        for low in range(p**deg):
            div = _digits(low, p, deg) + [1]
            rem = list(mod)
            for i in range(m - deg, -1, -1):
                c = rem[i + deg]
                if c:
                    for j in range(deg + 1):
                        rem[i + j] = (rem[i + j] - c * div[j]) % p
            if not any(rem[:deg]):
                return False
    return True


class Field:
    """GF(q) by dense tables, built from polynomial arithmetic."""

    def __init__(self, q: int):
        p, m = prime_power(q)
        self.q, self.p, self.m = q, p, m
        if m == 1:
            self.mul = [[(a * b) % p for b in range(q)] for a in range(q)]
            self.add = [[(a + b) % p for b in range(q)] for a in range(q)]
        else:
            mod = _PINNED.get((p, m))
            if mod is None:
                mod = next(
                    tuple(_digits(low, p, m)) + (1,)
                    for low in range(p**m)
                    if _irreducible(tuple(_digits(low, p, m)) + (1,), p)
                )
            dig = [_digits(x, p, m) for x in range(q)]
            und = lambda ds: sum(d * p**j for j, d in enumerate(ds))  # noqa: E731
            self.mul = [[und(_poly_mulmod(dig[a], dig[b], mod, p)) for b in range(q)] for a in range(q)]
            self.add = [
                [und([(x + y) % p for x, y in zip(dig[a], dig[b])]) for b in range(q)]
                for a in range(q)
            ]
        self.neg = [self.add[a].index(0) for a in range(q)]
        self.inv = [0] + [self.mul[a].index(1) for a in range(1, q)]

    def sub(self, a, b):
        return self.add[a][self.neg[b]]

    def dot(self, u, v) -> int:
        s = 0
        for a, b in zip(u, v):
            s = self.add[s][self.mul[a][b]]
        return s


_FIELDS: dict[int, Field] = {}


def field(q: int) -> Field:
    f = _FIELDS.get(q)
    if f is None:
        f = _FIELDS[q] = Field(q)
    return f


def rank(q: int, rows) -> int:
    F = field(q)
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv[rows[r][c]]
        rows[r] = [F.mul[inv][v] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(a, F.mul[f][b]) for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


# -- codeword enumeration ---------------------------------------------------


def weight_distribution(q: int, rows) -> list[int]:
    """Exact weight counts of the code spanned by ``rows``.

    GF(p^m) is an m-dimensional space over GF(p), so the code is the
    GF(p)-span of the k*m vectors t^i * row.  A modular p-ary Gray code
    walks that span changing one message digit by +1 per step, so each
    step adds one packed vector.  Coordinates are packed as base-p digit
    lanes in one Python integer: XOR for p = 2, lane-wise addition with a
    mod-p correction otherwise; the weight is a popcount of the lanes
    whose coordinate has a nonzero digit.
    """
    F = field(q)
    p, m = F.p, F.m
    k, n = len(rows), len(rows[0])
    gens = []
    for row in rows:
        for i in range(m):
            t_i = p**i
            gens.append([F.mul[t_i][v] for v in row])
    # lane layout: coordinate c, digit j -> lane c*m + j
    b = 1 if p == 2 else (2 * p - 1).bit_length() + 1
    lanes = n * m

    def pack(vec):
        x = 0
        for c, v in enumerate(vec):
            for j, d in enumerate(_digits(v, p, m)):
                x |= d << ((c * m + j) * b)
        return x

    packed = [pack(g) for g in gens]
    ones = sum(1 << (i * b) for i in range(lanes))
    coord_low = sum(1 << (c * m * b) for c in range(n))
    counts = [0] * (n + 1)
    dims = len(packed)
    total = p**dims
    digit = [0] * dims
    w = 0
    if p == 2:
        for step in range(total):
            if m == 1:
                counts[w.bit_count()] += 1
            else:
                nz = w
                for j in range(1, m):
                    nz |= w >> (j * b)
                counts[(nz & coord_low).bit_count()] += 1
            if step + 1 == total:
                break
            j = 0
            while digit[j] == 1:
                digit[j] = 0
                j += 1
            digit[j] = 1
            w ^= packed[j]
        return counts
    top = b - 1
    fix = ((1 << top) - p) * ones
    hi_mask = (1 << top) * ones
    nz_fix = ((1 << top) - 1) * ones
    for step in range(total):
        nzl = ((w + nz_fix) & hi_mask) >> top
        if m > 1:
            nz = nzl
            for j in range(1, m):
                nz |= nzl >> (j * b)
            nzl = nz & coord_low
        counts[nzl.bit_count()] += 1
        if step + 1 == total:
            break
        j = 0
        while digit[j] == p - 1:
            digit[j] = 0
            j += 1
        digit[j] += 1
        w += packed[j]
        over = ((w + fix) & hi_mask) >> top
        w -= over * p
    return counts


def krawtchouk_dual(counts, q: int, k: int) -> list[int]:
    """B_j = q^-k sum_i A_i K_j(i); raises unless every B_j is a
    nonnegative integer."""
    n = len(counts) - 1
    out = []
    for j in range(n + 1):
        s = 0
        for i, a in enumerate(counts):
            if a:
                kr = sum(
                    (-1) ** t * (q - 1) ** (j - t) * comb(i, t) * comb(n - i, j - t)
                    for t in range(j + 1)
                )
                s += a * kr
        val, rem = divmod(s, q**k)
        if rem or val < 0:
            raise ValueError(f"MacWilliams transform gives B_{j} = {Fraction(s, q**k)}")
        out.append(val)
    return out


# -- enumerator algebra -----------------------------------------------------


def poly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] += a * b
    return out


def poly_pow(u, e):
    out = [1]
    for _ in range(e):
        out = poly_mul(out, u)
    return out


def mds_distribution(n: int, d: int, q: int) -> list[int]:
    """MacWilliams-Sloane (ch. 11, Thm 6): A_w of an [n, n-d+1, d] MDS code,
    A_w = C(n,w) sum_{j=0}^{w-d} (-1)^j C(w,j) (q^(w-d+1-j) - 1); d = n+1
    stands for the zero code x^n."""
    out = [1] + [0] * n
    for w in range(d, n + 1):
        out[w] = comb(n, w) * sum(
            (-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1) for j in range(w - d + 1)
        )
    return out


def expand_zeta(coeffs, n: int, d: int, q: int) -> list[Fraction]:
    """The enumerator sum_i a_i M_{n,d+i} that P(T) = sum a_i T^i encodes."""
    if len(coeffs) > n + 2 - d:
        raise ValueError("zeta polynomial longer than its MDS basis")
    out = [Fraction(0)] * (n + 1)
    for i, a in enumerate(coeffs):
        if a:
            for w, c in enumerate(mds_distribution(n, d + i, q)):
                out[w] += a * c
    return out


def min_distance(counts) -> int | None:
    return next((i for i in range(1, len(counts)) if counts[i]), None)


# -- curves ------------------------------------------------------------------


def weierstrass(F: Field, a, x, y) -> bool:
    a1, a2, a3, a4, a6 = a
    M, A = F.mul, F.add
    lhs = A[A[M[y][y]][M[M[a1][x]][y]]][M[a3][y]]
    x2 = M[x][x]
    rhs = A[A[M[x2][x]][M[a2][x2]]][A[M[a4][x]][a6]]
    return lhs == rhs


def affine_points(q: int, a) -> list[tuple[int, int]]:
    F = field(q)
    return [(x, y) for x in range(q) for y in range(q) if weierstrass(F, a, x, y)]


def discriminant(q: int, a) -> int:
    """Silverman III.1 b-invariants, with integer constants reduced in GF(q)."""
    F = field(q)
    M, A, S = F.mul, F.add, F.sub
    a1, a2, a3, a4, a6 = a

    def c(n):  # the integer n in the prime subfield
        return n % F.p

    b2 = A[M[a1][a1]][M[c(4)][a2]]
    b4 = A[M[c(2)][a4]][M[a1][a3]]
    b6 = A[M[a3][a3]][M[c(4)][a6]]
    b8 = S(A[A[M[M[a1][a1]][a6]][M[c(4)][M[a2][a6]]]][M[a2][M[a3][a3]]], A[M[a1][M[a3][a4]]][M[a4][a4]])
    return S(
        M[c(9)][M[b2][M[b4][b6]]],
        A[A[M[M[b2][b2]][b8]][M[c(8)][M[b4][M[b4][b4]]]]][M[c(27)][M[b6][b6]]],
    )


def _fpow(F: Field, x: int, e: int) -> int:
    r = 1
    for _ in range(e):
        r = F.mul[r][x]
    return r


def one_point_monomials(k: int) -> list[tuple[int, int]]:
    """x^i y^j with j <= 1 and pole order 2i + 3j <= k at infinity."""
    return [(i, j) for j in (0, 1) for i in range(k + 1) if 2 * i + 3 * j <= k]


def one_point_rows(q: int, a, k: int, pts) -> list[list[int]]:
    F = field(q)
    return [[F.mul[_fpow(F, x, i)][_fpow(F, y, j)] for x, y in pts] for i, j in one_point_monomials(k)]


def fiber_reference(q: int, kind: str, a, delta: int, D) -> list[int]:
    """a_i = number of nonzero f in L(delta * infinity) with exactly i zeros
    on D, by evaluating every function; L is spanned by 1, x, .., x^delta
    on the line and by the one-point monomials on an elliptic curve."""
    F = field(q)
    if kind == "line":
        basis = [[_fpow(F, x, i) for (x,) in D] for i in range(delta + 1)]
    else:
        basis = one_point_rows(q, a, delta, D)
    hist = [0] * (delta + 1)
    dim = len(basis)
    for num in range(1, q**dim):
        vals = [0] * len(D)
        for r in range(dim):
            c = (num // q**r) % q
            if c:
                row = basis[r]
                vals = [F.add[v][F.mul[c][e]] for v, e in zip(vals, row)]
        zeros = vals.count(0)
        if zeros > delta:
            raise ValueError("a nonzero function with more zeros than poles")
        hist[zeros] += 1
    return hist


def weil_numerator(q: int, traces) -> list[int]:
    """prod_i (1 - a_i T + q T^2)."""
    out = [1]
    for a in traces:
        out = poly_mul(out, [1, -a, q])
    return out


def point_counts(q: int, numerator) -> list[int]:
    """N_m = q^m + 1 - s_m for m = 1..g, with the power sums s_m of the
    inverse roots from Newton's identities on P(T) = prod (1 - alpha T)."""
    g = (len(numerator) - 1) // 2
    s = [0] * (g + 1)
    for m in range(1, g + 1):
        s[m] = -m * numerator[m] - sum(numerator[j] * s[m - j] for j in range(1, m))
    return [q**m + 1 - s[m] for m in range(1, g + 1)]


# -- report checks ------------------------------------------------------------


class Mismatch(Exception):
    pass


def _eq(what, got, want):
    if got != want:
        raise Mismatch(f"{what}: report has {got!r}, reference {want!r}")


def _checks_pass(rep):
    for c in rep["checks"]:
        if not c["passed"]:
            raise Mismatch(f"report check {c['name']} failed")


def _fr(xs):
    return [Fraction(x) for x in xs]


def _check_zeta_block(z, counts, q, k, self_dual_sign):
    """z: the report's zeta block; counts: the exact source enumerator."""
    n = len(counts) - 1
    a = _fr(z["coefficients"])
    d = min_distance(counts)
    _eq("zeta.n", z["n"], n)
    _eq("zeta.q", z["q"], q)
    _eq("zeta.d", z["d"], d)
    _eq("zeta expanded through the MDS basis", expand_zeta(a, n, d, q), _fr(counts))
    _eq("zeta.p_at_one", Fraction(z["p_at_one"]), Fraction(1))
    _eq("sum of zeta coefficients", sum(a), Fraction(1))
    r = len(a) - 1
    _eq("zeta.degree", z["degree"], r)
    _eq("zeta degree n+2-d-d_dual", r, n + 2 - d - z["d_dual"])
    _eq("zeta.g", z["g"], n + 1 - k - d)
    _eq("zeta.g_dual", z["g_dual"], r - z["g"])
    if self_dual_sign:
        g = z["g"]
        _eq("zeta degree 2g", r, 2 * g)
        want = [self_dual_sign * Fraction(q) ** (j - g) * a[2 * g - j] for j in range(r + 1)]
        _eq("zeta self-reciprocity", a, want)


def check_report(op: dict, expect: dict, rc: int, out: str) -> None:
    """Raise Mismatch unless ``out`` is the correct report for ``op``."""
    kind = op["cmd"]
    _eq("exit code", rc, 0)
    if kind == "fiber":
        _eq("fiber counts", json.loads(out), expect["hist"])
        return
    rep = json.loads(out)
    _eq("schema", rep.get("schema"), "zetacode/1")
    _eq("command", rep.get("command"), kind)
    _checks_pass(rep)
    q = expect["q"]
    if kind in ("wdist", "dual", "zeta"):
        counts, n, k = expect["dist"], expect["n"], expect["k"]
        _eq("q", rep["q"], q)
        _eq("n", rep["n"], n)
        _eq("k", rep["k"], k)
    if kind == "wdist":
        d = min_distance(counts)
        _eq("distribution", rep["distribution"], counts)
        _eq("d", rep["d"], d)
        _eq("genus", rep["genus"], n + 1 - k - d)
    elif kind == "dual":
        F = field(q)
        rows, h = expect["rows"], rep["dual_rows"]
        _eq("dual_k", rep["dual_k"], n - k)
        _eq("rows of the dual", len(h), n - k)
        _eq("G H^T = 0", all(F.dot(u, v) == 0 for u in rows for v in h), True)
        _eq("rank of the dual", rank(q, h), n - k)
        gram_zero = all(F.dot(u, v) == 0 for u in rows for v in rows)
        _eq("self_orthogonal", rep["self_orthogonal"], gram_zero)
        _eq("self_dual", rep["self_dual"], gram_zero and 2 * k == n)
        if "dual_dist" in expect:
            _eq("dual_distribution", rep["dual_distribution"], expect["dual_dist"])
        else:
            _eq("dual_distribution present", "dual_distribution" in rep, False)
    elif kind == "zeta":
        # inputs have no zero column, so the command punctures nothing
        d = min_distance(counts)
        _eq("distribution", rep["distribution"], counts)
        _eq("d", rep["d"], d)
        _eq("genus", rep["genus"], n + 1 - k - d)
        dual = expect["dual_dist"]
        _eq("zeta.d_dual", rep["zeta"]["d_dual"], min_distance(dual))
        fsd = dual == counts
        _eq("formally_self_dual", rep["formally_self_dual"], fsd)
        _check_zeta_block(rep["zeta"], counts, q, k, 1 if fsd else 0)
    elif kind == "classify":
        counts, n = expect["enum"], expect["n"]
        d = min_distance(counts)
        _eq("n", rep["n"], n)
        _eq("q", rep["q"], q)
        _eq("type", rep["type"], expect["type"])
        formal = expect["type"] == "none"
        _eq("virtually_self_dual", rep["virtually_self_dual"], not formal)
        _eq("reason is null", rep["reason"] is None, not formal)
        _eq("formal_weight_enumerator", rep["formal_weight_enumerator"], formal)
        _eq("b_max", rep["b_max"], expect["b_max"])
        _eq("v_pattern", rep["v_pattern"], False)
        _eq("d", rep["d"], d)
        bound = expect["d_bound"]
        _eq("d_bound", rep["d_bound"], None if formal else bound)
        _eq("extremal", rep["extremal"], (not formal) and d == bound)
        if formal:
            f = rep["formal"]
            _eq("formal.n_mod_8", f["n_mod_8"], n % 8)
            _eq("formal.symmetric", f["symmetric"], counts == counts[::-1])
            _eq("formal.anti_functional_equation", f["anti_functional_equation"], True)
            _eq("formal.d_bound", f["d_bound"], bound)
            _eq("formal.extremal", f["extremal"], d == bound)
        _check_zeta_block(rep["zeta"], counts, q, n // 2, -1 if formal else 1)
        _eq("zeta.d_dual", rep["zeta"]["d_dual"], d)
    elif kind == "mds":
        _eq("n", rep["n"], expect["n"])
        _eq("d", rep["d"], expect["d"])
        _eq("q", rep["q"], q)
        want = mds_distribution(expect["n"], expect["d"], q)
        _eq("coefficients", [Fraction(c) for c in rep["coefficients"]], _fr(want))
    elif kind == "grs":
        n, k = expect["n"], expect["k"]
        F = field(q)
        _eq("q", rep["q"], q)
        _eq("n", rep["n"], n)
        _eq("k", rep["k"], k)
        _eq("d", rep["d"], n - k + 1)
        _eq("genus", rep["genus"], 0)
        _eq("distribution", rep["distribution"], mds_distribution(n, n - k + 1, q))
        want = [
            [F.mul[v][_fpow(F, x, i)] for x, v in zip(expect["alphas"], expect["mults"])]
            for i in range(k)
        ]
        _eq("generator_rows", rep["generator_rows"], want)
    elif kind == "elliptic":
        n1 = expect["n1"]
        counts, k = expect["dist"], expect["k"]
        n = len(counts) - 1
        d = min_distance(counts)
        _eq("curve", rep["curve"], [q] + list(expect["a"]))
        _eq("rational_points", rep["rational_points"], n1)
        _eq("curve_zeta", rep["curve_zeta"], [1, n1 - q - 1, q])
        _eq("q", rep["q"], q)
        _eq("n", rep["n"], n)
        _eq("k", rep["k"], k)
        _eq("distribution", rep["distribution"], counts)
        _eq("d", rep["d"], d)
        _eq("genus", rep["genus"], n + 1 - k - d)
    elif kind == "curve-zeta":
        _eq("q", rep["q"], q)
        _eq("genus", rep["genus"], expect["g"])
        _eq("counts", rep["counts"], expect["counts"])
        _eq("coefficients", rep["coefficients"], expect["coeffs"])
        # Weil: every inverse root has |alpha| = sqrt(q), so RH holds
        _eq("rh.holds", rep["rh"]["holds"], True)
    else:
        raise Mismatch(f"unknown command {kind}")
