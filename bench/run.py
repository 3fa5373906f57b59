"""Benchmark for zetacode: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The inputs of the workload are drawn from
the seed (bench/workloads.py) and written under bench/out/; their reference
answers are computed here, without zetacode (bench/refs.py).  Then fresh
worker processes are started (bench/worker.py): a few that only set up, to
time set-up, and one that also runs whole passes over the inputs for
``--seconds`` and checks every report.  One client, one process at a time,
BLAS pinned to one thread: a closed loop.

The last line of stdout is the result.  With ``--trace 0`` its metrics are
setup_s (median over the set-ups), op_p50_ms (median time of one correct
operation), ops_per_s (operations per second over whole passes) and
peak_rss_mb (peak resident set of the worker); the two operation times
are rescaled to a reference host speed by the probe in
bench/hostclock.py, and their raw wall-time figures go to stderr.  With
``--trace 1`` the metrics are the per-layer numbers derived from spans,
in raw wall time; the spans go to bench/out/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 7  # set-up-only workers per run
TIMEOUT_S = 170


def _worker_cmd(manifest, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
            "--manifest", manifest, *extra]


def _start(cmd, env) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its set-up time in seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup_s


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "zetacode", "__init__.py")):
        print(f"error: no zetacode sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S

    ops, expects = workloads.build(args.workload, args.seed)
    out_dir = os.path.join(HERE, "out")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for i, op in enumerate(ops):
            text = op.pop("file", None)
            if text is not None:
                path = os.path.join(work, f"op{i}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                op["argv"] = [path if a == "{file}" else a for a in op["argv"]]
        fields = set()
        for op, e in zip(ops, expects):
            if op["cmd"] == "fiber":
                fields.update(op["q"] ** r for r in range(1, op["delta"] + 1))
            elif op["cmd"] not in ("classify", "mds", "curve-zeta"):
                fields.add(e["q"])
        manifest = os.path.join(work, "inputs.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"ops": ops, "fields": sorted(fields)}, fh)
        expect = os.path.join(work, "expect.json")
        with open(expect, "w", encoding="utf-8") as fh:
            json.dump(expects, fh)

        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        setups = []

        # set-up stays in raw wall time: rescaled by the probe of
        # hostclock.py, the set-up medians of two sets of runs drifted
        # further apart (17% against 3% on curves, whose set-up is half
        # numpy table building, which the pure-Python probe does not track)
        def time_setups(count):
            for _ in range(count):
                proc, s = _start(_worker_cmd(manifest, "--setup-only"), env)
                proc.wait(timeout=max(deadline - time.monotonic(), 1))
                setups.append(s)

        # set-up samples before and after the measurement, so that they
        # span the run rather than one spell of the host's speed
        count = 0 if args.trace else SETUP_SAMPLES
        time_setups(count - count // 2)
        trace_out = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
        proc, _ = _start(_worker_cmd(manifest, "--expect", expect, "--seconds", str(args.seconds),
                                     "--trace", str(args.trace), "--trace-out", trace_out), env)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        res = json.loads(out.strip().splitlines()[-1])
        time_setups(count // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {res['passes']} passes of {len(ops)} operations, "
          f"setups {[round(s, 3) for s in setups]}, field tables {res['table_ms']:.1f} ms",
          file=sys.stderr)
    if not args.trace:
        print(f"raw wall time: op_p50_ms {res['raw_op_p50_ms']:.4f}, ops_per_s {res['raw_ops_per_s']:.4f}; "
              f"probe median {res['probe_p50_ms']:.4f} ms", file=sys.stderr)
    if args.trace:
        metrics = res["metrics"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
