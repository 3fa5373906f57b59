"""Spans around zetacode's public functions, installed from outside.

Every public module-level function of each zetacode module is replaced by
a wrapper that records a span (id, name, start, end, parent, operation;
the operation is its sequence number in the run and its input index).
The replacement is made in every module that holds the same function
object, so names imported elsewhere (``macwilliams_substitute`` in
``zeta`` and ``classify``, ``rref`` as called by ``LinearCode``, ``GF`` in
``cli``) are traced too.  The elliptic group law runs hundreds of
thousands of times per operation, so its functions are counted, not
spanned.  Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

MODULES = ("gf", "linear_code", "enumerator", "zeta", "classify", "ag", "cli")
COUNTED_ONLY = {"ag.add_points", "ag.negate_point", "ag.scalar_point_mul"}


def _codewords(code, *args, **kwargs):
    return code.spec.q ** code.k


def _degree(coeffs, *args, **kwargs):
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return len(c) - 1


# span name -> function of the call's arguments giving a per-call count
ARG_COUNTERS = {
    "linear_code.weight_distribution": ("codewords", _codewords),
    "zeta.roots_on_circle_verdict": ("rh_degree", _degree),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent, op]
        self.stack: list[int] = []
        self.op: tuple[int, int] | None = None  # (sequence number, input index)
        self.calls: dict[str, int] = defaultdict(int)
        self.sums: dict[str, int] = defaultdict(int)
        self.maxes: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        tracer = self
        if name in COUNTED_ONLY:
            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        counter = ARG_COUNTERS.get(name)

        def spanned(*args, **kwargs):
            if counter is not None:
                value = counter[1](*args, **kwargs)
                tracer.sums[counter[0]] += value
                tracer.maxes[counter[0]] = max(tracer.maxes[counter[0]], value)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            rec = [sid, name, 0, 0, parent, tracer.op]
            tracer.spans.append(rec)
            tracer.stack.append(sid)
            rec[2] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter_ns()
                tracer.stack.pop()

        return spanned

    def install(self, package) -> None:
        mods = [getattr(package, m) for m in MODULES]
        wrapped = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, w)
        # two methods that are layer work but not module functions: building
        # a code (its generator RREF) and multiplying enumerators
        for mod, cls_name, attr in (("linear_code", "LinearCode", "__init__"),
                                    ("enumerator", "WeightEnumerator", "__mul__")):
            cls = getattr(getattr(package, mod), cls_name)
            fn = cls.__dict__[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(f"{mod}.{cls_name}.{attr}", fn))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op[0], "input": op[1]}) + "\n")
            fh.write(json.dumps({"calls": dict(self.calls), "sums": dict(self.sums),
                                 "maxes": dict(self.maxes)}) + "\n")

    def layer_metrics(self, n_ops: int, printed_codewords: int, report_bytes: int,
                      n_reports: int) -> dict:
        """Per-operation means of the per-layer numbers."""
        child = defaultdict(int)
        count = defaultdict(int)
        for sid, name, start, end, parent, op in self.spans:
            count[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_ns = defaultdict(int)
        for sid, name, start, end, parent, op in self.spans:
            self_ns[name.split(".", 1)[0]] += end - start - child[sid]
        names = {s[0]: s[1] for s in self.spans}

        def outer_ns(*wanted, outside=()):
            """Time inside spans of the given names, not counting a span
            nested in another one of them or in a span named in ``outside``."""
            total = 0
            for sid, name, start, end, parent, op in self.spans:
                if name in wanted:
                    p = parent
                    while p is not None and names[p] not in wanted and names[p] not in outside:
                        p = self.spans[p][4]
                    if p is None:
                        total += end - start
            return total

        per = max(n_ops, 1)
        ms = lambda ns: ns / 1e6 / per  # noqa: E731
        enum_ns = outer_ns("linear_code.weight_distribution")
        codewords = self.sums["codewords"]
        return {
            # building the input code; a code built by dual() is dual work
            "linear_code.parse_ms": (
                ms(outer_ns("linear_code.parse_matrix_text", "linear_code.LinearCode.__init__",
                            outside=("linear_code.dual",))), "ms"),
            "linear_code.rref_ms": (ms(outer_ns("linear_code.rref")), "ms"),
            "linear_code.rref_calls": (count["linear_code.rref"] / per, "count"),
            "linear_code.dual_calls": (count["linear_code.dual"] / per, "count"),
            "linear_code.enumerate_ms": (ms(enum_ns), "ms"),
            "linear_code.codewords": (codewords / per, "count"),
            "linear_code.ns_per_codeword": (enum_ns / codewords if codewords else 0.0, "ns"),
            "linear_code.useful_codeword_ratio": (
                printed_codewords / codewords if codewords else 0.0, "ratio"),
            "enumerator.macwilliams_ms": (
                ms(outer_ns("enumerator.macwilliams_substitute", "enumerator.macwilliams_dual")), "ms"),
            "enumerator.macwilliams_calls": (count["enumerator.macwilliams_substitute"] / per, "count"),
            "zeta.mds_basis_ms": (ms(outer_ns("zeta.zeta_from_mds_basis")), "ms"),
            "zeta.chinen_ms": (ms(outer_ns("zeta.zeta_from_chinen")), "ms"),
            "zeta.rh_ms": (ms(outer_ns("zeta.roots_on_circle_verdict")), "ms"),
            "zeta.rh_calls": (count["zeta.roots_on_circle_verdict"] / per, "count"),
            "zeta.rh_max_degree": (self.maxes["rh_degree"], "count"),
            "classify.self_ms": (ms(self_ns["classify"]), "ms"),
            "ag.fiber_counts_ms": (ms(outer_ns("ag.fiber_counts")), "ms"),
            "ag.places_ms": (ms(outer_ns("ag.places_up_to")), "ms"),
            "ag.group_law_calls": (self.calls["ag.add_points"] / per, "count"),
            "ag.points_ms": (ms(outer_ns("ag.points")), "ms"),
            "ag.code_build_ms": (ms(outer_ns("ag.grs_code", "ag.elliptic_code")), "ms"),
            "cli.self_ms": (ms(self_ns["cli"]), "ms"),
            "cli.report_bytes": (report_bytes / n_reports if n_reports else 0.0, "bytes"),
        }
