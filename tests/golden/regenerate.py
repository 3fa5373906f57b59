"""Rewrite the golden-report corpus from the code in ``src``.

    python tests/golden/regenerate.py

Writes ``inputs/`` (the files the commands read), ``out/`` (each pinned
stdout) and ``cases.json`` (every call with its exit code, its stderr, and
its stdout as a file name or, for a report over ``HASH_OVER`` bytes, a
sha256), all beside this script, after deleting the old ones.  The
benchmark's workload inputs come from ``bench/workloads.build``, which is
only read.  ``tests/test_golden.py`` replays the corpus.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SEED = 4
HASH_OVER = 20_000  # bytes; a longer stdout is pinned by its sha256
JSON_AND_TEXT = ("json", "text")
COLUMNS = "80"

# small inputs for one call of every subcommand
HAMMING8 = "2 8 4\n1 0 0 0 0 1 1 1\n0 1 0 0 1 0 1 1\n0 0 1 0 1 1 0 1\n0 0 0 1 1 1 1 0\n"
PARITY4 = "2 4 3\n1 0 0 1\n0 1 0 1\n0 0 1 1\n"
DEGENERATE = "3 5 2\n1 0 1 2 0\n0 1 1 1 0\n"
W8 = "8 1 0 0 0 14 0 0 0 1\n"
CURVE5 = "5 0 0 0 1 1\n"

SUBCOMMANDS = [
    ("wdist", ["wdist", "inputs/hamming8.txt"]),
    ("wdist-dual-side", ["wdist", "inputs/parity4.txt"]),
    ("dual", ["dual", "inputs/hamming8.txt"]),
    ("zeta", ["zeta", "inputs/hamming8.txt"]),
    ("zeta-degenerate", ["zeta", "inputs/degenerate.txt"]),
    ("rh", ["rh", "--q", "2", "1/5", "2/5", "2/5"]),
    ("classify", ["classify", "inputs/w8.txt", "2"]),
    ("mds", ["mds", "6", "3", "7"]),
    ("grs", ["grs", "--q", "5", "--k", "2"]),
    ("elliptic", ["elliptic", "inputs/curve5.txt", "3"]),
    ("curve-zeta", ["curve-zeta", "--q", "5", "--genus", "1", "9"]),
]

# exits 1 and 2, and the README's rh lines, refusals included
REFUSALS_AND_RH = [
    ("wdist-over-budget", ["wdist", "inputs/hamming8.txt", "--budget", "8"]),
    ("wdist-missing-file", ["wdist", "inputs/no-such-file.txt"]),
    ("usage-error", ["mds", "6", "3"]),
    ("rh-readme-negative", ["rh", "--q", "2", "--", "1", "-1/2"]),
    ("rh-readme-zero-constant", ["rh", "--q", "2", "0", "1"]),
    ("rh-readme-leading-underflow", ["rh", "--q", "2", "1", "1e-400"]),
    ("rh-readme-constant-underflow",
     ["rh", "--q", "1048576", "--", "1e-330", "0", "0", "0", "1099511627776e-330"]),
    ("rh-readme-residual-overflow", ["rh", "--q", "4", "--", "-3", "1e210", "9e9"]),
    ("rh-readme-functional-equation", ["rh", "--q", "4", "--", "1", "-6", "12", "-8"]),
    ("rh-nan", ["rh", "--q", "4", "--", "1", "1e300", "1", "1e300", "1"]),
]

# Gleason bases (f, g) as ascending coefficient lists, with the weight at
# which g^j starts, and the lengths where ROADMAP's table reads holds: false
GLEASON = {
    "I": (2, [1, 0, 1], [0, 0, 1, 0, -2, 0, 1, 0, 0], 2, 120),
    "II": (2, [1, 0, 0, 0, 14, 0, 0, 0, 1],
           [0, 0, 0, 0, 1, 0, 0, 0, -4, 0, 0, 0, 6, 0, 0, 0, -4, 0, 0, 0, 1, 0, 0, 0, 0], 4, 144),
    "III": (3, [1, 0, 0, 8, 0], [0, 0, 0, 1, 0, 0, -3, 0, 0, 3, 0, 0, -1], 3, 144),
    "IV": (4, [1, 0, 3], [0, 0, 1, 0, -2, 0, 1], 2, 126),
}


def _mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] += a * b
    return out


def _pow(u, e):
    out = [1]
    for _ in range(e):
        out = _mul(out, u)
    return out


def extremal(f, g, step, n):
    """The extremal enumerator sum_j a_j f^((n - j deg g) / deg f) g^j: the
    a_j make A_0 = 1 and A_(step j) = 0 for j >= 1, one unit-diagonal
    triangular solve in integers (g^j starts with y^(step j))."""
    df, dg = len(f) - 1, len(g) - 1
    basis = [_mul(_pow(f, (n - j * dg) // df), _pow(g, j)) for j in range(n // dg + 1)]
    total = [0] * (n + 1)
    for j, b in enumerate(basis):
        assert len(b) == n + 1 and b[step * j] == 1 and not any(b[: step * j])
        a = (1 if j == 0 else 0) - total[step * j]
        total = [t + a * c for t, c in zip(total, b)]
    return total


def cases() -> tuple[list[dict], dict[str, str]]:
    """(every case, the input files by name)."""
    sys.dont_write_bytecode = True  # reading bench/ leaves nothing in it
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    inputs = {"hamming8.txt": HAMMING8, "parity4.txt": PARITY4, "degenerate.txt": DEGENERATE,
              "w8.txt": W8, "curve5.txt": CURVE5}
    out = []
    for name, argv in SUBCOMMANDS:
        for fmt in JSON_AND_TEXT:
            out.append({"name": f"{name}-{fmt}", "argv": argv + ["--format", fmt]})
    out += [{"name": name, "argv": argv} for name, argv in REFUSALS_AND_RH]
    for family, (q, f, g, step, n) in GLEASON.items():
        file = f"extremal-{family}-{n}.txt"
        inputs[file] = " ".join(map(str, [n] + extremal(f, g, step, n))) + "\n"
        out.append({"name": f"classify-extremal-{family}-{n}",
                    "argv": ["classify", f"inputs/{file}", str(q)]})
    for workload in workloads.WORKLOADS:
        ops, _ = workloads.build(workload, SEED)
        for i, op in enumerate(ops):
            name = f"{workload}-{SEED}-{i:02d}-{op['cmd']}"
            if op["cmd"] == "fiber":
                out.append({"name": name, "fiber": {k: op[k] for k in ("kind", "q", "a", "delta", "D")}})
                continue
            argv = list(op["argv"])
            if "file" in op:
                inputs[f"{name}.txt"] = op["file"]
                argv[argv.index("{file}")] = f"inputs/{name}.txt"
            out.append({"name": name, "argv": argv})
    return out, inputs


def run_fiber(fiber: dict) -> list[int]:
    """``ag.fiber_counts`` on a workload's fiber operation, built as the
    benchmark builds it."""
    from zetacode import ag
    from zetacode.gf import GF

    spec = GF(fiber["q"])
    if fiber["kind"] == "elliptic":
        curve = ag.EllipticCurve.from_indices(spec, fiber["a"])
        G = ag.Divisor.of([(ag.CurvePoint.infinity(), fiber["delta"])])
        D = [ag.CurvePoint.affine(spec.element(x), spec.element(y)) for x, y in fiber["D"]]
    else:
        curve = ag.ProjectiveLine(spec)
        G = ag.Divisor.of([(ag.LinePoint.infinity(), fiber["delta"])])
        D = [ag.LinePoint(spec.element(x)) for (x,) in fiber["D"]]
    return list(ag.fiber_counts(curve, G, D))


def run_case(case: dict) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one case, run in this directory."""
    from zetacode import cli

    if "fiber" in case:
        return 0, json.dumps(run_fiber(case["fiber"])) + "\n", ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(case["argv"])
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    all_cases, inputs = cases()
    for sub in ("inputs", "out"):
        shutil.rmtree(HERE / sub, ignore_errors=True)
        (HERE / sub).mkdir()
    for name, text in inputs.items():
        (HERE / "inputs" / name).write_text(text, encoding="utf-8")
    # the cases name their input files relative to HERE; usage lines wrap
    # at the width argparse reads from COLUMNS
    os.chdir(HERE)
    os.environ.pop("ZETACODE_BUDGET", None)
    os.environ["COLUMNS"] = COLUMNS
    records = []
    for case in all_cases:
        rc, stdout, stderr = run_case(case)
        record = {**case, "exit": rc, "stderr": stderr}
        data = stdout.encode("utf-8")
        if len(data) > HASH_OVER:
            record.update(stdout_sha256=hashlib.sha256(data).hexdigest(), stdout_bytes=len(data))
        else:
            record["stdout"] = f"out/{case['name']}.out"
            (HERE / record["stdout"]).write_bytes(data)
        records.append(record)
    (HERE / "cases.json").write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} cases written to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
