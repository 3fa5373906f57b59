"""One benchmark worker process: set up, then run whole passes.

Started by run.py.  Set-up (interpreter start, ``import zetacode``, field
tables, loading the inputs) ends with a ``READY`` line on stdout, which
run.py times.  A ``--setup-only`` worker exits there.  Otherwise the worker
runs passes over the input list until the next pass would end after
``--seconds``, checks every distinct report against the references, and
prints one JSON result line.  Untraced, it times the host-speed probe
between operations (hostclock.py) and reports operation times rescaled
to the reference host, with the raw wall-time figures beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time


def setup(root: str, manifest: dict):
    sys.path.insert(0, os.path.join(root, "src"))
    import zetacode
    from zetacode import ag, cli  # noqa: F401  (cli is what the operations call)
    from zetacode.gf import GF

    t0 = time.perf_counter()
    for q in manifest["fields"]:
        GF(q).tables
    table_ms = (time.perf_counter() - t0) * 1e3
    ops = manifest["ops"]
    for op in ops:
        if op["cmd"] == "fiber":
            spec = GF(op["q"])
            if op["kind"] == "elliptic":
                curve = ag.EllipticCurve.from_indices(spec, op["a"])
                G = ag.Divisor.of([(ag.CurvePoint.infinity(), op["delta"])])
                D = [ag.CurvePoint.affine(spec.element(x), spec.element(y)) for x, y in op["D"]]
            else:
                curve = ag.ProjectiveLine(spec)
                G = ag.Divisor.of([(ag.LinePoint.infinity(), op["delta"])])
                D = [ag.LinePoint(spec.element(x)) for (x,) in op["D"]]
            op["args"] = (curve, G, D)
    return zetacode, ops, table_ms


class Runner:
    def __init__(self, zetacode, ops):
        self.pkg = zetacode
        self.ops = ops
        self.outcomes: dict[tuple, int] = {}  # (op index, exit code, report) -> id
        self.tracer = None
        self.clock = None  # a HostClock, probed between operations
        self.seq = 0

    def run_op(self, i: int) -> tuple[int, int, float]:
        """(nanoseconds, outcome id, perf_counter start) of operation i."""
        op = self.ops[i]
        self.seq += 1
        if self.tracer is not None:
            self.tracer.op = (self.seq, i)
        # each zetacode process starts with an empty Chinen cache; clear it
        # so that a repeated pass pays what a fresh command pays
        cache = getattr(self.pkg.zeta, "_CHINEN_CACHE", None)
        if cache is not None:
            cache.clear()
        if self.clock is not None:
            self.clock.maybe_sample()
        if op["cmd"] == "fiber":
            t = time.perf_counter_ns()
            try:
                res = self.pkg.ag.fiber_counts(*op["args"])
                ns = time.perf_counter_ns() - t
                rc, out = 0, json.dumps([int(c) for c in res])
            except Exception as exc:  # a failed operation, checked below
                ns = time.perf_counter_ns() - t
                rc, out = 1, f"{type(exc).__name__}: {exc}"
        else:
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                t = time.perf_counter_ns()
                try:
                    rc = self.pkg.cli.main(op["argv"])
                except SystemExit as exc:  # argparse rejects the command line
                    rc = exc.code if isinstance(exc.code, int) else 2
                ns = time.perf_counter_ns() - t
            out = buf.getvalue() if rc == 0 else err.getvalue()
        key = (i, rc, out)
        oid = self.outcomes.get(key)
        if oid is None:
            oid = self.outcomes[key] = len(self.outcomes)
        return ns, oid, t / 1e9

    def run_pass(self) -> tuple[int, list[int], list[int], list[float]]:
        """(pass nanoseconds, operation nanoseconds, outcome ids, starts)."""
        t = time.perf_counter_ns()
        times, oids, starts = [], [], []
        for i in range(len(self.ops)):
            ns, oid, start = self.run_op(i)
            times.append(ns)
            oids.append(oid)
            starts.append(start)
        return time.perf_counter_ns() - t, times, oids, starts


def run_passes(runner: Runner, seconds: float, passes: list) -> None:
    """Append whole passes until the next one would end after ``seconds``."""
    start = time.perf_counter()
    done = 0
    while True:
        passes.append(runner.run_pass())
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def verify(runner: Runner, expects: list) -> dict[int, str | None]:
    """Outcome id -> None when the report is correct, else the reason."""
    import refs

    verdicts = {}
    for (i, rc, out), oid in runner.outcomes.items():
        try:
            refs.check_report(runner.ops[i], expects[i], rc, out)
            verdicts[oid] = None
        except refs.Mismatch as exc:
            verdicts[oid] = str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:  # malformed report
            verdicts[oid] = f"unreadable report: {type(exc).__name__}: {exc}"
    return verdicts


def tally(passes: list, verdicts: dict, ops: list):
    """(attempted, failed, unexpected failures, times of correct operations)."""
    attempted = failed = 0
    unexpected = []
    ok_times = []
    for p in passes:
        for i, (ns, oid) in enumerate(zip(p[1], p[2])):
            attempted += 1
            if verdicts[oid] is None:
                ok_times.append(ns)
                continue
            failed += 1
            if not ops[i]["known_fault"]:
                unexpected.append((i, verdicts[oid]))
    return attempted, failed, unexpected, ok_times


def traced_run(runner: Runner, seconds: float, trace_out: str, passes: list):
    """One untraced pass, whose reports are the reference bytes, then traced
    passes.  Returns (per-layer metrics, whether every traced report was
    byte-identical to the untraced one)."""
    from spans import Tracer

    run_passes(runner, 0, passes)
    plain_ns = passes[0][0]
    tracer = Tracer()
    tracer.install(runner.pkg)
    runner.tracer = tracer
    traced: list = []
    run_passes(runner, max(seconds - plain_ns / 1e9, 0), traced)
    tracer.uninstall()
    tracer.write(trace_out)
    same = all(p[2] == passes[0][2] for p in traced)
    traced_ns = statistics.mean(p[0] for p in traced)
    print(f"tracing overhead: {traced_ns / plain_ns - 1:+.1%} per pass "
          f"({plain_ns / 1e9:.3f} s untraced, {traced_ns / 1e9:.3f} s traced)", file=sys.stderr)
    passes += traced
    keys = {oid: key for key, oid in runner.outcomes.items()}
    printed = nbytes = nreports = 0
    words = {}  # outcome id -> codewords in its printed distributions
    for p in traced:
        for oid in p[2]:
            i, rc, out = keys[oid]
            if runner.ops[i]["cmd"] == "fiber" or rc != 0:
                continue
            if oid not in words:
                rep = json.loads(out)
                words[oid] = sum(rep.get("distribution", ())) + sum(rep.get("dual_distribution", ()))
            nreports += 1
            nbytes += len(out.encode())
            printed += words[oid]
    return tracer.layer_metrics(len(runner.ops) * len(traced), printed, nbytes, nreports), same


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--expect")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    zetacode, ops, table_ms = setup(args.root, manifest)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    with open(args.expect, encoding="utf-8") as fh:
        expects = json.load(fh)
    runner = Runner(zetacode, ops)
    passes: list = []
    result: dict = {}
    if args.trace:
        layers, same = traced_run(runner, args.seconds, args.trace_out, passes)
        layers["gf.table_build_ms"] = (table_ms, "ms")
        layers["gf.fields"] = (len(manifest["fields"]), "count")
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
    else:
        from hostclock import HostClock

        runner.clock = HostClock()
        run_passes(runner, args.seconds, passes)
        runner.clock.sample()
        same = True
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    verdicts = verify(runner, expects)
    attempted, failed, unexpected, raw_ok = tally(passes, verdicts, ops)
    scaled = passes
    if runner.clock is not None:
        clock = runner.clock
        scaled = [(p[0], [ns * clock.scale(t, t + ns / 1e9) for ns, t in zip(p[1], p[3])], p[2])
                  for p in passes]
        result["probe_p50_ms"] = statistics.median(clock.ns) / 1e6
    ok_times = tally(scaled, verdicts, ops)[3]
    for i, why in sorted(set(unexpected))[:10]:
        print(f"operation {i} ({' '.join(ops[i].get('argv', [ops[i]['cmd']]))}): {why}",
              file=sys.stderr)
    if not same:
        print("reports differ with tracing on", file=sys.stderr)
    result.update({
        "correct": not unexpected and same,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        # rates over the operations' own time: whole passes without the probes
        "op_p50_ms": statistics.median(ok_times) / 1e6 if ok_times else None,
        "ops_per_s": attempted / (sum(sum(p[1]) for p in scaled) / 1e9),
        "raw_op_p50_ms": statistics.median(raw_ok) / 1e6 if raw_ok else None,
        "raw_ops_per_s": attempted / (sum(sum(p[1]) for p in passes) / 1e9),
        "peak_rss_mb": peak_kb / 1024,
        "table_ms": table_ms,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
