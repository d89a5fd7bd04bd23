"""One benchmark process: set up one workload, run its timed operations and
the pinned-seed reference check, and print the result as one JSON line.

Started by run.py in a fresh interpreter, with PYTHONPATH pointing at the
checkout's src/ and BLAS/OpenMP pinned to one thread.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --mode setup|run --workdir DIR --spawned-at MONOTONIC
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import delaysde
import spans
from workloads import WORKLOADS, OpResult

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def run_ops(wl, st, seed, seconds, min_ops, memo, first_index=0, tracer=None):
    """Ops until `seconds` have passed and at least `min_ops` ran.

    Returns a list of (seconds, OpResult); checks run inside the timing.
    """
    done = []
    start = time.perf_counter()
    while len(done) < min_ops or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            res = wl.op(st, seed, first_index + len(done), memo)
        except Exception:  # an op that raises is a failed op, not a crashed run
            res = OpResult(0, [traceback.format_exc(limit=3)])
        done.append((time.perf_counter() - t0, res))
        if tracer is not None:
            for key, value in res.counts.items():
                tracer.add(key, value)
    return done


def check_reference(wl, st, name):
    """Mismatches between the pinned-seed summary and reference.json."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    rtol, atol = ref["rtol"], ref["atol"]
    try:
        got = wl.reference(st)
    except Exception:
        return [traceback.format_exc(limit=3)]
    return [
        f"reference {key}: got {got.get(key)!r}, stored {want!r} (rtol {rtol}, atol {atol})"
        for key, want in ref[name].items()
        if not (key in got and abs(got[key] - want) <= atol + rtol * abs(want))
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(delaysde.__file__).startswith(src + os.sep):
        print(f"delaysde imported from {delaysde.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    st = wl.setup(args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    memo: dict = {}
    if args.trace == 0:
        ops = run_ops(wl, st, args.seed, args.seconds, wl.min_ops, memo)
    else:
        # untraced then traced halves; the ratio of their op times is the overhead
        plain = run_ops(wl, st, args.seed, args.seconds / 2, 1, memo)
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.open_root()
            traced_st = wl.setup(args.workdir)
            t_ops = time.perf_counter()
            tracer.phase = "ops"
            traced = run_ops(wl, traced_st, args.seed, args.seconds / 2, 1, memo, len(plain), tracer)
            tracer.close_root()
        finally:
            tracer.uninstall()
        overhead = (statistics.median(t for t, _ in traced)
                    / statistics.median(t for t, _ in plain) - 1.0)
        out["layers"] = spans.layer_metrics(tracer, t_ops, len(traced), overhead)
        ops = plain + traced
    ref_errors = check_reference(wl, st, args.workload)
    out.update({
        "op_seconds": [t for t, _ in ops],
        "op_paths": [r.paths for _, r in ops],
        "op_errors": [r.errors for _, r in ops],
        "reference_errors": ref_errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "delaysde": delaysde.__version__},
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
