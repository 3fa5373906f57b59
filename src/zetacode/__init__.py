"""Exact-arithmetic toolkit for weight enumerators, code zeta polynomials,
and algebraic-geometry codes of genus 0 and 1."""

from .gf import GF, FieldSpec
from .linear_code import BudgetExceededError, LinearCode, Matrix
from .enumerator import WeightEnumerator
from .zeta import RhVerdict, ZetaPolynomial
from .ag import CurvePoint, CurveZeta, Divisor, EllipticCurve, ProjectiveLine

__version__ = "0.1.0"

__all__ = [
    "GF",
    "FieldSpec",
    "BudgetExceededError",
    "LinearCode",
    "Matrix",
    "WeightEnumerator",
    "RhVerdict",
    "ZetaPolynomial",
    "CurvePoint",
    "CurveZeta",
    "Divisor",
    "EllipticCurve",
    "ProjectiveLine",
    "__version__",
]
