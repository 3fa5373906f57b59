"""One integer rule at the public API: only a plain int is an integer.

A bool, a float (integral or not), a Fraction, None, a str or a numpy
integer given where the library takes an integer is refused with a
TypeError or ValueError, or, where it equals an int, acts exactly as that
int would; it never yields an answer of its own, and it never changes the
answer of a later call.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from zetacode import cli, gf
from zetacode.ag import (
    CurvePoint,
    Divisor,
    EllipticCurve,
    LinePoint,
    ProjectiveLine,
    elliptic_code,
    elliptic_distribution_from_amin,
    fiber_counts,
    grs_code,
    negate_point,
    points,
    zeta_from_point_counts,
)
from zetacode.enumerator import (
    WeightEnumerator,
    from_distribution,
    macwilliams_dual,
    mds_enumerator,
    solve_macwilliams,
)
from zetacode.gf import GF
from zetacode.linear_code import LinearCode, Matrix, WeightDistribution
from zetacode.zeta import zeta_from_mds_basis

qs = st.sampled_from((2, 3, 4, 5, 7, 8, 9))
CURVES = ((5, (0, 0, 0, 1, 1)), (7, (0, 0, 0, 1, 3)), (4, (0, 0, 1, 0, 0)),
          (9, (0, 0, 0, 1, 0)), (3, (0, 0, 0, 2, 1)))
curves = st.sampled_from(CURVES).map(lambda c: EllipticCurve.from_indices(GF(c[0]), c[1]))
# (n, k, q, A_(n-k)) of one-point elliptic codes on the curves above
AMIN_CASES = ((8, 2, 5, 16), (8, 3, 5, 24), (5, 2, 7, 12), (8, 2, 4, 12),
              (15, 2, 9, 48), (6, 2, 3, 6), (6, 3, 3, 4))
# (n, k, q, d, d_dual, knowns): the [7, 4, 3]_2 Hamming code, an MDS
# [4, 2, 3]_5 code, and the elliptic codes above
MACWILLIAMS_CASES = ((7, 4, 2, 3, 4, (7,)), (4, 2, 5, 3, 3, ())) + tuple(
    (n, k, q, n - k, k, (a,)) for n, k, q, a in AMIN_CASES
)
# (q, dimension, weight distribution) of codes with a zeta polynomial
ZETA_CASES = ((2, 4, (1, 0, 0, 7, 7, 0, 0, 1)), (2, 4, (1, 0, 0, 0, 14, 0, 0, 0, 1)),
              (3, 2, (1, 0, 0, 8, 0)))


def _listed(args: dict, prefix: str) -> list:
    return [args[f"{prefix}{i}"] for i in range(sum(s.startswith(prefix) for s in args))]


def _slots(prefix: str, values) -> dict:
    return {f"{prefix}{i}": v for i, v in enumerate(values)}


# each entry point: a strategy of (call, args), where args maps the name of
# every integer the call takes to a valid int, and call(args) makes the call


@st.composite
def field_orders(draw):
    return lambda a: GF(a["q"]), {"q": draw(qs)}


@st.composite
def elements(draw):
    spec = GF(draw(qs))
    return lambda a: spec.element(a["index"]), {"index": draw(st.integers(0, spec.q - 1))}


@st.composite
def index_rows(draw):
    q = draw(qs)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols))
    return GF(q), cols, _slots("e", entries)


def _rows(args: dict, cols: int) -> list[list]:
    flat = _listed(args, "e")
    return [flat[i : i + cols] for i in range(0, len(flat), cols)]


@st.composite
def matrices(draw):
    spec, cols, args = draw(index_rows())
    return lambda a: Matrix(spec, np.array(_rows(a, cols))), args


@st.composite
def matrices_from_indices(draw):
    spec, cols, args = draw(index_rows())
    return lambda a: Matrix.from_indices(spec, _rows(a, cols)), args


@st.composite
def elliptic_curves(draw):
    q, coeffs = draw(st.sampled_from(CURVES))
    args = dict(zip(("a1", "a2", "a3", "a4", "a6"), coeffs))
    return lambda a: EllipticCurve(GF(q), a["a1"], a["a2"], a["a3"], a["a4"], a["a6"]), args


@st.composite
def curves_from_indices(draw):
    q, coeffs = draw(st.sampled_from(CURVES))
    return lambda a: EllipticCurve.from_indices(GF(q), _listed(a, "a")), _slots("a", coeffs)


@st.composite
def curve_points(draw):
    curve = draw(curves)
    x, y = draw(st.sampled_from([(p.x, p.y) for p in points(curve)[1:]]))
    return lambda a: negate_point(curve, CurvePoint(a["x"], a["y"])), {"x": x, "y": y}


@st.composite
def line_points(draw):
    line = ProjectiveLine(GF(draw(qs)))
    G = Divisor.of([(LinePoint.infinity(), 2)])
    x = draw(st.integers(0, line.spec.q - 1))
    return lambda a: fiber_counts(line, G, [LinePoint(a["x"])]), {"x": x}


@st.composite
def divisors(draw):
    where = (CurvePoint(0, 1), CurvePoint.infinity())
    mults = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
    return lambda a: Divisor.of(zip(where, _listed(a, "m"))), _slots("m", mults)


@st.composite
def grs_codes(draw):
    spec = GF(draw(qs))
    n = draw(st.integers(1, spec.q))
    alphas = draw(st.permutations(range(spec.q)))[:n]
    mults = draw(st.lists(st.integers(1, spec.q - 1), min_size=n, max_size=n))
    args = {"k": draw(st.integers(1, n)), **_slots("alpha", alphas), **_slots("v", mults)}
    return lambda a: grs_code(spec, _listed(a, "alpha"), _listed(a, "v"), a["k"]), args


@st.composite
def elliptic_codes(draw):
    curve = draw(curves)
    k = draw(st.integers(1, len(points(curve)) - 2))
    return lambda a: elliptic_code(curve, a["k"]), {"k": k}


@st.composite
def curve_zetas(draw):
    g = draw(st.integers(0, 2))
    counts = draw(st.lists(st.integers(0, 30), min_size=g, max_size=g))
    args = {"q": draw(qs), "g": g, **_slots("count", counts)}
    return lambda a: zeta_from_point_counts(a["q"], a["g"], _listed(a, "count")), args


@st.composite
def fibers(draw):
    curve = draw(curves)
    D = points(curve)[1:]
    args = {"m": draw(st.integers(0, 3)), "budget": draw(st.sampled_from((10**6, 10)))}
    return lambda a: fiber_counts(
        curve, Divisor.of([(CurvePoint.infinity(), a["m"])]), D, a["budget"]
    ), args


@st.composite
def macwilliams_solutions(draw):
    n, k, q, d, d_dual, knowns = draw(st.sampled_from(MACWILLIAMS_CASES))
    args = {"n": n, "k": k, "q": q, "d": d, "d_dual": d_dual, **_slots("known", knowns)}
    return lambda a: solve_macwilliams(
        a["n"], a["k"], a["q"], a["d"], a["d_dual"], _listed(a, "known")
    ), args


@st.composite
def amin_distributions(draw):
    args = dict(zip(("n", "k", "q", "a_min"), draw(st.sampled_from(AMIN_CASES))))
    return lambda a: elliptic_distribution_from_amin(a["n"], a["k"], a["q"], a["a_min"]), args


@st.composite
def mds_enumerators(draw):
    n = draw(st.integers(2, 8))
    d = draw(st.one_of(st.integers(1, n - 1), st.just(n + 1)))
    return lambda a: mds_enumerator(a["n"], a["d"], a["q"]), {"n": n, "d": d, "q": draw(qs)}


@st.composite
def weight_enumerators(draw):
    n = draw(st.integers(0, 4))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1))
    return lambda a: WeightEnumerator(a["n"], _listed(a, "c")), {"n": n, **_slots("c", coeffs)}


@st.composite
def macwilliams_duals(draw):
    q, k, counts = draw(st.sampled_from(ZETA_CASES))
    enum = from_distribution(WeightDistribution(len(counts) - 1, counts))
    return lambda a: macwilliams_dual(enum, a["q"], a["k"]), {"q": q, "k": k}


@st.composite
def mds_basis_zetas(draw):
    q, k, counts = draw(st.sampled_from(ZETA_CASES))
    enum = from_distribution(WeightDistribution(len(counts) - 1, counts))
    return lambda a: zeta_from_mds_basis(enum, q, dimension=a["dimension"]), {"dimension": k}


ENTRY_POINTS = {
    "GF": field_orders(),
    "FieldSpec.element": elements(),
    "Matrix": matrices(),
    "Matrix.from_indices": matrices_from_indices(),
    "EllipticCurve": elliptic_curves(),
    "EllipticCurve.from_indices": curves_from_indices(),
    "CurvePoint": curve_points(),
    "LinePoint": line_points(),
    "Divisor.of": divisors(),
    "grs_code": grs_codes(),
    "elliptic_code": elliptic_codes(),
    "zeta_from_point_counts": curve_zetas(),
    "fiber_counts": fibers(),
    "solve_macwilliams": macwilliams_solutions(),
    "elliptic_distribution_from_amin": amin_distributions(),
    "macwilliams_dual": macwilliams_duals(),
    "mds_enumerator": mds_enumerators(),
    "WeightEnumerator": weight_enumerators(),
    "zeta_from_mds_basis": mds_basis_zetas(),
}

# the non-int stand-ins for an int v; the first three equal v
EQUAL = {"bool": lambda v: bool(v), "float": float, "numpy": np.int64}
UNEQUAL = {"float+0.9": lambda v: v + 0.9, "fraction": lambda v: Fraction(2 * v + 1, 2),
           "None": lambda v: None, "str": str}


# (entry point, argument) -> the stand-in that is a valid value there:
# LinePoint(None) is the point at infinity, dimension=None asks for the
# dimension to be inferred, and enumerator coefficients are exact rationals
NOT_A_STAND_IN = {("LinePoint", "x"): "None", ("zeta_from_mds_basis", "dimension"): "None",
                  ("WeightEnumerator", "c"): "fraction"}


def _shape(x):
    """x as nested plain data in which 1, 1.0, True and np.int64(1) differ."""
    if isinstance(x, LinearCode):
        return ("LinearCode", _shape(x.gen))
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.tolist())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,
                tuple((f.name, _shape(getattr(x, f.name))) for f in dataclasses.fields(x)))
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, tuple(map(_shape, x)))
    return (type(x).__name__, x)


def _outcome(call, args):
    try:
        return ("returned", _shape(call(args)))
    except Exception as exc:  # compared, not hidden: see the property
        return ("raised", type(exc).__name__, str(exc))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=50)
@given(data=st.data())
def test_a_non_int_is_refused_or_acts_as_the_equal_int(name, data):
    """Each argument of a valid call in turn takes each stand-in for its int."""
    call, args = data.draw(ENTRY_POINTS[name])
    expected = _outcome(call, args)
    for slot, v in args.items():
        valid = NOT_A_STAND_IN.get((name, slot.rstrip("0123456789")))
        for kind, stand_in in (EQUAL | UNEQUAL).items():
            if kind == valid or (kind == "bool" and v not in (0, 1)):
                continue
            bad = stand_in(v)
            got = _outcome(call, {**args, slot: bad})
            if got[0] == "raised" and got[1] in ("TypeError", "ValueError"):
                continue
            assert kind in EQUAL, f"{name} took {slot}={bad!r}: {got}"
            assert got == expected, f"{name} with {slot}={bad!r}"


def test_every_entry_point_names_the_argument_it_refuses():
    spec = GF(5)
    e = EllipticCurve.from_indices(spec, [0, 0, 0, 1, 1])
    cases = [
        (lambda: GF(4.0), "field order"),
        (lambda: spec.element(True), "index"),
        (lambda: Matrix(spec, np.array([[0.0, 1.0]])), "integer dtype"),
        (lambda: Matrix(spec, np.array([[True, False]])), "integer dtype"),
        (lambda: Matrix.from_indices(spec, [[np.int64(1)]]), "matrix index"),
        (lambda: EllipticCurve.from_indices(spec, [0, 0, 0, 1.9, 1]), "curve coefficient"),
        (lambda: Divisor.of([(CurvePoint.infinity(), 1.7)]), "multiplicity"),
        (lambda: grs_code(spec, [0.9, 2], [1, 1], 1), "evaluation point"),
        (lambda: grs_code(spec, [0, 2], [1, 1], True), "k"),
        (lambda: elliptic_code(e, np.int64(2)), "k"),
        (lambda: zeta_from_point_counts(5, 1, [6.5]), "point count"),
        (lambda: fiber_counts(e, Divisor.of({}), [], 1e6), "budget"),
        (lambda: solve_macwilliams(7, 4, 2.0, 3, 4, [7]), "q"),
        (lambda: elliptic_distribution_from_amin(8, 2, 5, "16"), "minimum-weight count"),
        (lambda: mds_enumerator(4, 2, np.int64(3)), "q"),
        (lambda: macwilliams_dual(WeightEnumerator(1, [1, 1]), np.int64(9), 1), "q"),
        (lambda: WeightEnumerator(1, [1, True]), "coefficient"),
    ]
    for call, name in cases:
        with pytest.raises(TypeError, match=name):
            call()


def test_a_bad_field_order_leaves_the_interned_fields_alone(monkeypatch, capsys, tmp_path):
    files = {}
    for q, rows in ((4, [[1, 0, 2, 3], [0, 1, 3, 2]]), (2, [[1, 0, 1, 1], [0, 1, 1, 0]])):
        files[q] = tmp_path / f"gf{q}.txt"
        files[q].write_text(f"{q} 4 2\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    argvs = [[cmd, str(files[q])] for q in files for cmd in ("wdist", "dual")]

    def reports():
        out = []
        for argv in argvs:
            rc = cli.main(argv)
            out.append((rc, *capsys.readouterr()))
        return out

    before = reports()
    assert all(rc == 0 for rc, _, _ in before)
    monkeypatch.setattr(gf, "_FIELDS", {})
    for q in (4.0, np.int64(2)):
        with pytest.raises(TypeError, match="field order"):
            GF(q)
    assert all(type(q) is int and type(s.q) is int for q, s in gf._FIELDS.items())
    assert reports() == before


def test_the_suite_profile_is_loaded():
    # tests/conftest.py makes every property reproducible
    assert settings.default.derandomize and settings.default.database is None
    assert settings.default.deadline is None
