"""Command-line frontend.

Every subcommand emits one report, as JSON (default) or plain text, with a
"checks" block naming each identity that was verified on the inputs.  This
module builds every report block; the other modules return only typed
values (``ZetaPolynomial``, ``RhVerdict``, ``DivisibilityReport``, ...).
Output is deterministic: rationals are rendered as exact "p/q" strings and
every float is printed with 17 significant digits, so identical inputs
produce byte-identical reports.  JSON is written by ``_json_text``, which
gives the bytes of ``json.dumps(report, indent=2)`` but renders a list by
its shape: a list of one scalar type is joined in one pass, integers from
a table of the texts of small ones, and a list of more than a few records
that share their keys and hold only strings, such as the roots of an RH
block, by one format string.  A report value it does not know, such as a
float, is an internal error.  Input files are read as UTF-8, a leading
byte-order mark dropped.

Exit codes: 0 ok, 1 invalid input (usage errors included), 2 enumeration
budget exceeded, 3 internal invariant violation.  The environment variable
ZETACODE_BUDGET overrides the default codeword budget; --budget overrides
both.  It bounds min(q^k, q^(n-k)): a code's distribution comes from the
smaller of it and its dual.  ``dual`` checks the MacWilliams transform
only when both sides fit.

The argument parser is built once per process, on the first ``main`` call,
and every call parses its own ``argv`` against it; ZETACODE_BUDGET is still
read on every call.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import ag, classify as classify_mod, enumerator, linear_code, zeta
from .gf import GF, check_order
from .linear_code import BudgetExceededError, DEFAULT_BUDGET, LinearCode

SCHEMA = "zetacode/1"

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


@dataclass(frozen=True)
class RunConfig:
    """Validated run options shared by every subcommand."""

    budget: int
    tol: float
    format: str
    out: str | None

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        zeta.check_tolerance(self.tol)

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        if args.budget is not None:
            budget = args.budget
        else:
            raw = os.environ.get("ZETACODE_BUDGET")
            if raw is None:
                budget = DEFAULT_BUDGET
            else:
                try:
                    budget = int(raw)
                except ValueError:
                    raise ValueError(
                        f"ZETACODE_BUDGET is not an integer: {raw!r}"
                    ) from None
        return cls(budget=budget, tol=args.tol, format=args.format, out=args.out)


def _read_text(path: str) -> str:
    try:
        # utf-8-sig drops the byte-order mark some editors put first
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _check(name: str, passed: bool) -> dict:
    return {"name": name, "passed": bool(passed)}


def _fmt_float(x: float) -> str:
    # -0.0 + 0.0 is 0.0, so a zero never prints as "-0"
    return f"{x + 0.0:.17g}"


def _rationals(p) -> list[str]:
    """The coefficients nums[i] / den of an exact polynomial as str(Fraction)
    prints them: "a/b" in lowest terms, or the integer when b = 1."""
    d = p.den
    return [str(x // g) if (g := math.gcd(x, d)) == d else f"{x // g}/{d // g}" for x in p.nums]


def _rh_block(verdict: zeta.RhVerdict) -> dict:
    """A root-circle verdict, every float as a 17-digit string."""
    return {
        "holds": verdict.holds,
        "tolerance": _fmt_float(verdict.tolerance),
        "max_deviation": _fmt_float(verdict.max_deviation),
        "roots": [{"re": _fmt_float(z.real), "im": _fmt_float(z.imag)} for z in verdict.roots],
        "residuals": [_fmt_float(r) for r in verdict.residuals],
    }


def _zeta_block(p: zeta.ZetaPolynomial, verdict: zeta.RhVerdict) -> dict:
    """Exact coefficients and parameters of P(T), with its root-circle verdict."""
    p_at_one = p.evaluate(1)
    return {
        "coefficients": _rationals(p),
        "degree": p.degree,
        "q": p.q,
        "n": p.n,
        "d": p.d,
        "d_dual": p.d_dual,
        "g": p.g,
        "g_dual": p.g_dual,
        "p_at_one": str(p_at_one),
        "p_at_one_is_one": p_at_one == 1,
        "rh": _rh_block(verdict),
    }


def _code_summary(code: LinearCode, budget: int):
    """Report fields and weight distribution (an enumerator) of a code from
    whichever of it and its dual has fewer words (the code on a tie), plus
    the dual's distribution, with its transform, if that side was
    enumerated, else None.  A transformed distribution with a fraction or
    a negative count is an internal error."""
    q, n, k = code.spec.q, code.n, code.k
    if 0 < n - k < k:
        dual_enum = linear_code.weight_distribution(linear_code.dual(code), budget)
        enum = enumerator.macwilliams_dual(dual_enum, q, n - k)
        if enum.den != 1 or min(enum.nums) < 0:
            raise RuntimeError("the dual's MacWilliams transform is not a count vector")
    else:
        enum, dual_enum = linear_code.weight_distribution(code, budget), None
    d = enum.min_distance
    summary = {
        "q": q,
        "n": n,
        "k": k,
        "d": d,
        "genus": n + 1 - k - d,
        "distribution": list(enum.nums),
    }
    return summary, enum, dual_enum


# -- subcommand handlers ---------------------------------------------------


def _cmd_wdist(args, config: RunConfig) -> dict:
    budget = config.budget
    code = linear_code.parse_matrix_text(_read_text(args.matrix))
    summary, enum, _ = _code_summary(code, budget)
    q, k, n = code.spec.q, code.k, code.n
    checks = [
        _check("zero_word_is_unique", enum.nums[0] == 1),
        _check("counts_sum_to_q_pow_k", enum.total() == q**k),
        _check("singleton_bound", summary["d"] <= n - k + 1),
    ]
    return {**summary, "checks": checks}


def _cmd_dual(args, config: RunConfig) -> dict:
    budget = config.budget
    code = linear_code.parse_matrix_text(_read_text(args.matrix))
    dualc = linear_code.dual(code)
    self_orthogonal = linear_code.is_self_orthogonal(code)
    out = {
        "q": code.spec.q,
        "n": code.n,
        "k": code.k,
        "dual_k": dualc.k,
        "dual_rows": dualc.gen.index_rows(),
        # a self-orthogonal code with 2k = n equals its dual
        "self_dual": 2 * code.k == code.n and self_orthogonal,
        "self_orthogonal": self_orthogonal,
    }
    spec = code.spec
    gram = linear_code._gram(spec, code.gen.array, dualc.gen.array)
    checks = [
        _check("generator_times_dual_transpose_is_zero", not gram.any()),
        _check("dual_dimension_is_n_minus_k", dualc.k == code.n - code.k),
    ]
    if not dualc.is_zero and spec.q**dualc.k <= budget:
        eq = linear_code.weight_distribution(dualc, budget).nums
        if spec.q**code.k <= budget:
            enum = linear_code.weight_distribution(code, budget)
            transform = enumerator.macwilliams_dual(enum, spec.q, code.k)
            matches = transform.den == 1 and transform.nums == eq
            checks.append(_check("macwilliams_transform_matches_dual_distribution", matches))
        out["dual_distribution"] = list(eq)
    out["checks"] = checks
    return out


def _cmd_zeta(args, config: RunConfig) -> dict:
    budget = config.budget
    code = linear_code.parse_matrix_text(_read_text(args.matrix))
    out: dict = {"q": code.spec.q}
    if linear_code.is_degenerate(code):
        punctured = linear_code.puncture_degenerate(code)
        out["punctured_coordinates"] = code.n - punctured.n
        out["notice"] = (
            f"punctured {code.n - punctured.n} identically-zero coordinate(s)"
        )
        code = punctured
    if code.k == code.n:
        raise ValueError(
            f"the zeta polynomial is undefined for the full space GF({code.spec.q})^{code.n}: "
            "its dual is the zero code"
        )
    summary, enum, dual_enum = _code_summary(code, budget)
    out.update(summary)
    q = code.spec.q
    p_basis = zeta.zeta_from_mds_basis(enum, q, dimension=code.k)
    p_chinen = zeta.zeta_from_chinen(enum, q, dimension=code.k)
    if dual_enum is None:
        dual_enum = enumerator.macwilliams_dual(enum, q, code.k)
    try:
        p_dual = zeta.zeta_from_mds_basis(dual_enum, q, dimension=code.n - code.k)
    except ValueError:  # a code with d = 1 has a degenerate dual
        p_dual = None
    out["zeta"] = _zeta_block(p_basis, zeta.riemann_hypothesis(p_basis, config.tol))
    checks = [
        _check(
            "both_zeta_algorithms_agree",
            (p_basis.nums, p_basis.den) == (p_chinen.nums, p_chinen.den),
        ),
        _check(
            "degree_is_n_plus_2_minus_d_minus_d_dual",
            p_basis.degree == code.n + 2 - p_basis.d - p_basis.d_dual,
        ),
        _check("p_at_one_is_one", out["zeta"]["p_at_one_is_one"]),
        _check("low_order_coefficients_match_counts", zeta.corollary_ad_check(p_basis, enum)),
    ]
    if p_dual is not None:
        f_dual = zeta.functional_dual(p_basis)
        checks.append(
            _check(
                "functional_equation_matches_dual_zeta",
                (f_dual.nums, f_dual.den) == (p_dual.nums, p_dual.den),
            )
        )
    out["formally_self_dual"] = enum == dual_enum
    if out["formally_self_dual"]:
        checks.append(_check("self_reciprocal", zeta.self_reciprocal_check(p_basis)))
    out["checks"] = checks
    return out


def _cmd_rh(args, config: RunConfig) -> dict:
    check_order(args.q)  # before the coefficients are parsed
    coeffs = []
    for pos, tok in enumerate(args.coeffs, start=1):
        try:
            coeffs.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"coefficient {pos}: not a rational: {tok!r}") from None
    if not coeffs or all(c == 0 for c in coeffs):
        raise ValueError("need a nonzero polynomial")
    if coeffs[0] == 0:
        raise ValueError("the constant term is 0, and no zeta polynomial has a zero constant term")
    verdict = zeta.roots_on_circle_verdict(coeffs, args.q, config.tol)
    return {
        "q": args.q,
        "coefficients": [str(c) for c in coeffs],
        "rh": _rh_block(verdict),
        "checks": [_check("roots_on_circle", verdict.holds)],
    }


def _cmd_classify(args, config: RunConfig) -> dict:
    check_order(args.q)  # before the enumerator file is read
    enum = enumerator.parse_enumerator_text(_read_text(args.enumerator))
    rep = classify_mod.classify(enum, args.q)
    formal = classify_mod.is_formal_weight_enumerator(enum)
    out = {
        "n": enum.n,
        "q": args.q,
        "virtually_self_dual": rep.virtually_self_dual,
        "reason": rep.reason,
        "b_max": rep.b_max,
        "type": rep.type_label,
        "v_pattern": rep.v_pattern,
        "d": rep.d,
        "d_bound": rep.d_bound,
        "extremal": rep.extremal,
        "formal_weight_enumerator": formal,
    }
    try:
        if formal:
            fr = classify_mod.formal_checks(enum, config.tol)
            out["formal"] = {
                "n_mod_8": fr.n_mod_8,
                "symmetric": fr.symmetric,
                "anti_functional_equation": fr.anti_functional_equation,
                "d_bound": fr.d_bound,
                "extremal": fr.extremal,
            }
            out["zeta"] = _zeta_block(fr.zeta, fr.rh)
        else:
            p = zeta.zeta_from_mds_basis(enum, args.q)
            out["zeta"] = _zeta_block(p, zeta.riemann_hypothesis(p, config.tol))
    except ValueError as exc:
        out["zeta"] = {"error": str(exc)}
    label = rep.type_label
    out["checks"] = [
        # only a virtually self-dual enumerator gets a type
        _check("type_conditions_consistent", label == "none" or rep.virtually_self_dual),
    ]
    if label in ("I", "II", "III", "IV"):
        out["checks"].append(
            _check(
                "divisibility_matches_type",
                rep.b_max % {"I": 2, "II": 4, "III": 3, "IV": 2}[label] == 0,
            )
        )
    return out


def _cmd_mds(args, config: RunConfig) -> dict:
    enum = enumerator.mds_enumerator(args.n, args.d, args.q)
    nonneg = enum.den == 1 and min(enum.nums) >= 0
    total_ok = enum.total() == args.q ** (args.n + 1 - args.d)
    return {
        "n": args.n,
        "d": args.d,
        "q": args.q,
        "coefficients": _rationals(enum),
        "checks": [
            _check("coefficients_are_nonnegative_integers", nonneg),
            _check("total_is_q_pow_k", total_ok),
        ],
    }


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of a comma-separated command-line list; empty is invalid."""
    if not text.strip():
        raise ValueError(f"{flag} needs at least one comma-separated integer")
    out = []
    for tok in text.split(","):
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"{flag}: not an integer: {tok!r}") from None
    return out


def _cmd_grs(args, config: RunConfig) -> dict:
    budget = config.budget
    spec = GF(args.q)
    if args.alphas is not None:
        alphas = _int_list("--alphas", args.alphas)
        if args.n is not None and args.n != len(alphas):
            raise ValueError(
                f"--n {args.n} disagrees with the {len(alphas)} evaluation points of --alphas"
            )
    elif args.n is not None and args.n > spec.q:
        raise ValueError(f"need n <= q = {spec.q} distinct evaluation points, got n = {args.n}")
    else:
        alphas = list(range(spec.q if args.n is None else args.n))
    n = len(alphas)
    multipliers = (
        [1] * n if args.multipliers is None else _int_list("--multipliers", args.multipliers)
    )
    code = ag.grs_code(spec, alphas, multipliers, args.k)
    if args.k == n:
        raise ValueError(
            f"the zeta polynomial is undefined for the full space GF({spec.q})^{n} "
            f"(k = n = {n}): its dual is the zero code"
        )
    summary, enum, _ = _code_summary(code, budget)
    closed = enumerator._mds_coeffs(n, n + 1 - args.k, args.q)
    p = zeta.zeta_from_mds_basis(enum, args.q, dimension=args.k)
    checks = [
        _check("distance_meets_singleton_bound", summary["d"] == n - args.k + 1),
        _check("distribution_matches_closed_form", closed == enum.nums),
        _check("zeta_polynomial_is_one", p.nums == (1,) and p.den == 1),
    ]
    return {**summary, "generator_rows": code.gen.index_rows(), "checks": checks}


def _cmd_elliptic(args, config: RunConfig) -> dict:
    budget = config.budget
    curve = ag.parse_curve_text(_read_text(args.curve))
    pts = ag.points(curve)
    n1 = len(pts)
    q = curve.spec.q
    cz = ag.zeta_from_point_counts(q, 1, [n1])
    verdict = ag.curve_rh(cz, config.tol)
    code = ag.elliptic_code(curve, args.k, pts[1:])
    summary, enum, _ = _code_summary(code, budget)
    d = summary["d"]
    n = code.n
    checks = [
        _check("hasse_bound", ag.within_hasse_bound(q, n1)),
        _check("curve_rh", verdict.holds),
        _check("dimension_is_k", code.k == args.k),
        _check("distance_is_n_minus_k_or_mds", d in (n - args.k, n - args.k + 1)),
    ]
    out = {
        "curve": list((q,) + curve.coefficient_indices()),
        "rational_points": n1,
        "curve_zeta": list(cz.coeffs),
        "curve_rh_max_deviation": _fmt_float(verdict.max_deviation),
        **summary,
    }
    if d == n - args.k:
        rec = ag.elliptic_distribution_from_amin(n, args.k, q, enum.nums[d])
        checks.append(_check("distribution_determined_by_minimum_count", rec == enum))
    out["checks"] = checks
    return out


def _cmd_curve_zeta(args, config: RunConfig) -> dict:
    cz = ag.zeta_from_point_counts(args.q, args.genus, args.counts)
    verdict = ag.curve_rh(cz, config.tol)
    rh = _rh_block(verdict)
    del rh["residuals"]  # not part of the curve-zeta report schema
    return {
        "q": args.q,
        "genus": args.genus,
        "counts": list(args.counts),
        "coefficients": list(cz.coeffs),
        "rh": rh,
        "checks": [
            _check("functional_equation", zeta.functional_equation_holds(cz.q, cz.coeffs)),
            _check("roots_on_circle", verdict.holds),
        ],
    }


# -- rendering and dispatch -------------------------------------------------


def _render_text(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_render_text(item, indent + 1))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


class _IntTexts(dict):
    """The texts of ints: kept for 0-1023 (field indices, weights, degrees),
    made on a miss."""

    def __missing__(self, i):
        return int.__repr__(i)


_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: _IntTexts((i, repr(i)) for i in range(1024)).__getitem__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}
# a list of at most this many str-valued dicts renders faster one dict at a
# time than by one format string: right after a report is built, the two
# took the same time at 9 dicts (2-CPU VM)
_FEW_RECORDS = 8


def _json_text(value, pad: str = "") -> str:
    """The text ``json.dumps(value, indent=2)`` gives for a report value:
    dicts with str keys, lists, tuples, str, int, bool and None.  A list
    whose items all have one of these scalar types is joined in one pass
    (``[1, True]`` is not: bool is not int here).  A longer list of dicts
    that all have the first one's keys, in its order, and only str values,
    such as the roots of an RH block, is rendered by one format string.
    Anything else, a float or a ``Fraction`` included, is a TypeError:
    reports carry floats and rationals as strings."""
    kind = type(value)
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = (f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in value.items())
        opening, closing = "{", "}"
    elif kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, value))
        one = kinds.pop() if len(kinds) == 1 else None
        scalar = _JSON_SCALARS.get(one)
        if one is dict and len(value) > _FEW_RECORDS:
            keys = list(value[0])
            texts = list(chain.from_iterable(map(dict.values, value)))
            same_keys = list(chain.from_iterable(value)) == keys * len(value)
            if same_keys and set(map(type, texts)) == {str}:
                # the keys go into the format string, so their % is doubled
                fields = ",\n".join(
                    f"{inner}  {encode_basestring_ascii(k).replace('%', '%%')}: %s" for k in keys
                )
                item = f"{{\n{fields}\n{inner}}}"
                body = f",\n{inner}".join([item] * len(value)) % tuple(
                    map(encode_basestring_ascii, texts)
                )
                return f"[\n{inner}{body}\n{pad}]"
        items = map(scalar, value) if scalar else (_json_text(v, inner) for v in value)
        opening, closing = "[", "]"
    else:
        raise TypeError(f"a report value must not be a {kind.__name__}: {value!r}")
    sep = ",\n" + inner
    return f"{opening}\n{inner}{sep.join(items)}\n{pad}{closing}"


def _emit(payload: dict, config: RunConfig) -> None:
    if config.format == "json":
        text = _json_text(payload) + "\n"
    else:
        text = _render_text(payload) + "\n"
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {config.out}: {exc}") from None
    else:
        sys.stdout.write(text)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1 (invalid input), keeping 2 for the budget."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="zetacode",
        description="Exact weight-enumerator, zeta-polynomial and AG-code analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget", type=int, default=None, help="codeword budget")
        p.add_argument("--tol", type=float, default=1e-8, help="root-circle tolerance")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("wdist", help="weight distribution of a generator-matrix file")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=_cmd_wdist)

    p = sub.add_parser("dual", help="dual code of a generator-matrix file")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("zeta", help="zeta polynomial, functional equation, RH verdict")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("rh", help="root-circle check for explicit coefficients")
    p.add_argument("--q", type=int, required=True)
    p.add_argument(
        "coeffs", nargs="+", help="ascending rationals; after -- if any is negative, like -1/2"
    )
    common(p)
    p.set_defaults(func=_cmd_rh)

    p = sub.add_parser("classify", help="divisibility type and extremality of an enumerator file")
    p.add_argument("enumerator")
    p.add_argument("q", type=int)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("mds", help="closed-form MDS weight enumerator")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("q", type=int)
    common(p)
    p.set_defaults(func=_cmd_mds)

    p = sub.add_parser("grs", help="generalized Reed-Solomon code and its checks")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="defaults to q (all points)")
    p.add_argument("--alphas", default=None, help="comma-separated evaluation points")
    p.add_argument("--multipliers", default=None, help="comma-separated column multipliers")
    common(p)
    p.set_defaults(func=_cmd_grs)

    p = sub.add_parser("elliptic", help="one-point elliptic code from a curve file")
    p.add_argument("curve")
    p.add_argument("k", type=int)
    common(p)
    p.set_defaults(func=_cmd_elliptic)

    p = sub.add_parser("curve-zeta", help="curve zeta numerator from point counts")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("counts", type=int, nargs="*", help="N_1 .. N_g")
    common(p)
    p.set_defaults(func=_cmd_curve_zeta)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_args(args)
        payload = {"schema": SCHEMA, "command": args.command, **args.func(args, config)}
        _emit(payload, config)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except Exception as exc:  # internal invariant violations
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
