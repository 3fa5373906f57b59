"""Seeded inputs for the three workloads, with their reference answers.

Every workload is a fixed list of operation *shapes* (command, field,
dimensions, lengths).  The seed draws the contents: generator matrices,
enumerator decompositions, curves, traces and divisor supports.  So every
seed times the same mix of sizes, and the spread between seeds reflects
the program, not a reshuffled mix.  Shapes are chosen so that the
operation times spread roughly log-uniformly across each workload, which
keeps the median inside one class of operation.

Inputs and references are built here without zetacode (see refs.py).
"""

from __future__ import annotations

import math
import random

import refs

WORKLOADS = ("enumerate", "transform", "curves")

# enumerate: (q, command, k, n - k); q^k and q^(n-k) lie in about 2^12..2^17
ENUMERATE_SHAPES = [
    (2, "wdist", 17, 12), (2, "dual", 14, 12), (2, "zeta", 12, 12), (2, "wdist", 13, 13),
    (3, "wdist", 10, 8), (3, "dual", 9, 9), (3, "zeta", 8, 9), (3, "wdist", 8, 8),
    (4, "wdist", 8, 6), (4, "dual", 7, 7), (4, "zeta", 7, 6), (4, "wdist", 6, 6),
    (5, "wdist", 7, 5), (5, "dual", 6, 6), (5, "zeta", 6, 5), (5, "wdist", 5, 5),
    (7, "wdist", 6, 5), (7, "dual", 5, 6), (7, "zeta", 5, 5), (7, "wdist", 5, 5),
    (8, "wdist", 5, 4), (8, "dual", 5, 5), (8, "zeta", 4, 5), (8, "dual", 4, 4),
    (9, "wdist", 5, 4), (9, "dual", 4, 5), (9, "zeta", 5, 5), (9, "zeta", 4, 4),
]

# transform: Gleason-type enumerators by family and length
CLASSIFY_SHAPES = [
    ("formal", 44), ("III", 48), ("I", 54), ("IV", 60),
    ("II", 64), ("formal", 68), ("I", 76), ("III", 88),
]
# 15 operations a pass: 6 below 200 ms (mds, wdist, classify n <= 48) and
# three at 270-300 ms (classify n = 54, 60, dual [64,6]) next, so the
# median falls in the middle of that trio rather than on its lower edge
MDS_LENGTHS = (120, 200)
# long low-rate codes (q, command, n, k), q^k <= 2^8
LONG_CODE_SHAPES = [
    (2, "wdist", 128, 8), (3, "wdist", 96, 5),
    (2, "dual", 64, 6), (3, "dual", 64, 4), (2, "dual", 72, 8),
]

# curves
CURVE_FIELDS = (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)
ELLIPTIC_K = {3: 4, 4: 5, 5: 4, 7: 4, 8: 3, 9: 3, 11: 3, 13: 3, 16: 3, 25: 2, 27: 2}
GRS_K = {3: 2, 4: 3, 5: 4, 7: 4, 8: 4, 9: 3, 11: 3, 13: 3, 16: 3, 25: 2, 27: 2}
CURVE_ZETA_SHAPES = [(2, 1), (3, 2), (4, 2), (5, 3), (7, 2), (8, 3), (9, 2),
                     (11, 3), (13, 2), (16, 3), (25, 2), (27, 3)]
# Weil numerators with a repeated factor, prod (1 - a T + q T^2) over the
# listed traces.  Their roots are double, the float root-circle verdict
# perturbs them by about 1e-8, and the report says holds: false although
# Weil's theorem says true.  Fixed inputs, counted as failed every run.
REPEATED_FACTOR = [(3, (0, 0)), (5, (-4, -4)), (7, (-4, -4)), (9, (-5, -5))]
FIBER_SHAPES = [(q, delta) for q in (2, 3, 4, 5, 7) for delta in (3, 4, 5) if q**delta <= 1024]

_TETRA = [1, 0, 0, 8, 0]                              # q = 3, n = 4
_GOLAY12 = [1] + [0] * 5 + [264, 0, 0, 440, 0, 0, 24]  # q = 3, n = 12
_HEXA = [1, 0, 0, 0, 45, 0, 18]                       # q = 4, n = 6
_Q4_PAIR = [1, 0, 3]                                  # x^2 + 3 y^2
_XY = [1, 0, 1]                                       # x^2 + y^2
_W8 = [1, 0, 0, 0, 14, 0, 0, 0, 1]
_W12 = [1, 0, 0, 0, -33, 0, 0, 0, -33, 0, 0, 0, 1]
_BOUNDS = {"I": lambda n: 2 * (n // 8) + 2, "II": lambda n: 4 * (n // 24) + 4,
           "III": lambda n: 3 * (n // 12) + 3, "IV": lambda n: 2 * (n // 6) + 2,
           "formal": lambda n: 4 * ((n - 12) // 24) + 4}


def _matrix_text(q, rows):
    return f"{q} {len(rows[0])} {len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _random_code(rng, q, n, k):
    """Uniform full-rank k x n matrix with no zero column."""
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if all(any(r[c] for r in rows) for c in range(n)) and refs.rank(q, rows) == k:
            return rows


def _code_op(q, cmd, rows):
    n, k = len(rows[0]), len(rows)
    dist = refs.weight_distribution(q, rows)
    expect = {"q": q, "n": n, "k": k, "dist": dist}
    if cmd in ("dual", "zeta"):
        expect["rows"] = rows
        if q ** (n - k) <= 2**24:  # zetacode's default codeword budget
            expect["dual_dist"] = refs.krawtchouk_dual(dist, q, k)
    op = {"cmd": cmd, "argv": [cmd, "{file}"], "file": _matrix_text(q, rows)}
    return op, expect


def _enumerate(rng):
    return [_code_op(q, cmd, _random_code(rng, q, k + r, k)) for q, cmd, k, r in ENUMERATE_SHAPES]


def _gleason(family, n):
    """The enumerator of the family at length n, with as many of the
    larger invariants (w8, the Golay code, w12) as fit.  Fixed, not
    seeded: how the cost of a report grows with the size of its
    coefficients differs between decompositions, and a seeded choice made
    the median swing between seeds."""
    if family == "II":
        return 2, refs.poly_pow(_W8, n // 8)
    if family == "I":
        b = (n - 2) // 8
        return 2, refs.poly_mul(refs.poly_pow(_XY, (n - 8 * b) // 2), refs.poly_pow(_W8, b))
    if family == "III":
        b = (n - 4) // 12
        return 3, refs.poly_mul(refs.poly_pow(_TETRA, (n - 12 * b) // 4), refs.poly_pow(_GOLAY12, b))
    if family == "IV":
        return 4, refs.poly_mul(refs.poly_pow(_HEXA, n // 6 - 1), refs.poly_pow(_Q4_PAIR, 3))
    return 2, refs.poly_mul(refs.poly_pow(_W8, (n - 12) // 8), _W12)


def _transform(rng):
    ops = []
    for family, n in CLASSIFY_SHAPES:
        q, enum = _gleason(family, n)
        b_max = math.gcd(*(i for i, c in enumerate(enum) if c and i))
        ops.append((
            {"cmd": "classify", "argv": ["classify", "{file}", str(q)],
             "file": " ".join(map(str, [n] + enum)) + "\n"},
            {"q": q, "n": n, "enum": enum, "b_max": b_max,
             "type": "none" if family == "formal" else family, "d_bound": _BOUNDS[family](n)},
        ))
    for n in MDS_LENGTHS:
        q = rng.choice([x for x in range(n - 1, 2 * n) if _is_prime_power(x)][:4])
        d = rng.randrange(2, n)
        ops.append(({"cmd": "mds", "argv": ["mds", str(n), str(d), str(q)]},
                    {"q": q, "n": n, "d": d}))
    for q, cmd, n, k in LONG_CODE_SHAPES:
        ops.append(_code_op(q, cmd, _random_code(rng, q, n, k)))
    return ops


def _is_prime_power(x):
    try:
        refs.prime_power(x)
    except ValueError:
        return False
    return x >= 2


def _random_curve(rng, q, trace=None):
    """A nonsingular curve y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with
    at least one affine point whose trace a = q + 1 - N_1 is ``trace``, or
    has a^2 != 4q (a double root of its numerator) when ``trace`` is None."""
    for _ in range(100000):
        a = [rng.randrange(q) for _ in range(5)]
        if refs.discriminant(q, a) == 0:
            continue
        pts = refs.affine_points(q, a)
        t = q - len(pts)
        if pts and (t == trace if trace is not None else t * t != 4 * q):
            return a, pts
    raise RuntimeError(f"no curve over GF({q}) with trace {trace}")


def _traces(rng, q, g):
    """g distinct traces a with a^2 < 4q: the numerator has simple roots."""
    bound = math.isqrt(4 * q - 1)
    return sorted(rng.sample(range(-bound, bound + 1), g))


def _curve_zeta_op(q, traces, known_fault):
    coeffs = refs.weil_numerator(q, traces)
    counts = refs.point_counts(q, coeffs)
    op = {"cmd": "curve-zeta", "known_fault": known_fault,
          "argv": ["curve-zeta", "--q", str(q), "--genus", str(len(traces))] + [str(c) for c in counts]}
    return op, {"q": q, "g": len(traces), "counts": counts, "coeffs": coeffs}


def _curves(rng):
    ops = []
    for q in CURVE_FIELDS:
        a, pts = _random_curve(rng, q)
        while len(pts) < 2:
            a, pts = _random_curve(rng, q)
        k = min(ELLIPTIC_K[q], len(pts) - 1)
        dist = refs.weight_distribution(q, refs.one_point_rows(q, a, k, pts))
        ops.append(({"cmd": "elliptic", "argv": ["elliptic", "{file}", str(k)],
                     "file": " ".join(map(str, [q] + a)) + "\n"},
                    {"q": q, "a": a, "k": k, "n1": len(pts) + 1, "dist": dist}))
    for q in CURVE_FIELDS:
        k = GRS_K[q]
        alphas = rng.sample(range(q), q)
        mults = [rng.randrange(1, q) for _ in range(q)]
        ops.append(({"cmd": "grs", "argv": ["grs", "--q", str(q), "--k", str(k),
                                            "--alphas", ",".join(map(str, alphas)),
                                            "--multipliers", ",".join(map(str, mults))]},
                    {"q": q, "n": q, "k": k, "alphas": alphas, "mults": mults}))
    for q, g in CURVE_ZETA_SHAPES:
        ops.append(_curve_zeta_op(q, _traces(rng, q, g), False))
    for q, traces in REPEATED_FACTOR:
        ops.append(_curve_zeta_op(q, list(traces), True))
    for kind in ("elliptic", "line"):
        for q, delta in FIBER_SHAPES:
            if kind == "line":
                a, pts = None, [(x,) for x in range(q)]
            else:
                # the oracle walks every effective divisor of degree delta,
                # about N_1 q^delta / (q - 1) of them; a fixed N_1 = q + 1
                # keeps that work the same for every seed
                a, pts = _random_curve(rng, q, trace=0)
            D = sorted(rng.sample(pts, rng.randrange(1, len(pts) + 1)))
            hist = refs.fiber_reference(q, kind, a, delta, D)
            ops.append(({"cmd": "fiber", "kind": kind, "q": q, "a": a, "delta": delta,
                         "D": [list(p) for p in D]}, {"q": q, "hist": hist}))
    return ops


def build(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(operations, reference answers) of one pass, in pass order."""
    rng = random.Random(f"{workload}:{seed}")
    pairs = {"enumerate": _enumerate, "transform": _transform, "curves": _curves}[workload](rng)
    ops = [dict(op, known_fault=op.get("known_fault", False)) for op, _ in pairs]
    return ops, [e for _, e in pairs]
