"""Benchmark of delaysde: three workloads, end-to-end metrics and traced
per-layer metrics.

    python3 bench/run.py --workload reweight|couple|cli|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  Each workload runs in fresh processes with BLAS/OpenMP
pinned to one thread.  With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics named in BENCHMARK.json; with
--trace 1 it holds the per-layer metrics.  The exit code is 0 only when every
operation and the reference check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 3  # fresh processes whose set-up time is measured; the median is reported
BUDGET_S = 170.0  # one workload, all of its processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _commit() -> str | None:
    """HEAD of the checkout's git repository, when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _call_worker(args, mode: str, workdir: Path, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
           "--workdir", str(workdir)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before the worker started")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the worker
        raise BenchError(f"{mode} worker exceeded the {BUDGET_S:.0f} s budget") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, spec: dict) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    deadline = time.monotonic() + BUDGET_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if args.trace == 0:
            setups = [_call_worker(args, "setup", workdir, deadline)["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
        res = _call_worker(args, "run", workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    setups.append(res["setup_s"])

    errors = [e for errs in res["op_errors"] for e in errs] + res["reference_errors"]
    attempted = len(res["op_seconds"]) + 1  # the reference computation is one more op
    failed = sum(1 for errs in res["op_errors"] if errs) + bool(res["reference_errors"])
    rates = [n / t for n, t in zip(res["op_paths"], res["op_seconds"])]
    print(f"provenance: {json.dumps(dict(res['versions'], python=platform.python_version(), nproc=os.cpu_count(), commit=_commit(), src_sha256=_src_digest(), workload=args.workload, seed=args.seed, trace=args.trace))}")
    for e in errors:
        print(f"{args.workload}: FAILED: {e}")
    name = args.workload
    if args.trace == 0:
        q = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
        values = {
            "paths_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print(f"{name}  paths_per_s  {values['paths_per_s']:.1f} 1/s  "
              f"(median of {len(rates)} ops; quartiles {q[0]:.1f}, {q[2]:.1f})")
        print(f"{name}  setup_s      {values['setup_s']:.3f} s  (median of {len(setups)} fresh processes: "
              f"{', '.join(f'{s:.3f}' for s in setups)})")
        print(f"{name}  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
        print(f"{name}  failed_frac  {failed / attempted:g}  ({failed} of {attempted} ops)")
        wanted = spec["end_to_end"]
    else:
        values = res["layers"]
        wanted = spec["per_layer"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"worker did not report {', '.join(missing)}")
        wall = values["trace.wall_s"]
        for metric in wanted:
            value = values[metric["name"]]
            share = f"  {value / wall:6.1%} of wall" if metric["unit"] == "s" else ""
            print(f"{name}  {metric['name']:28s} {value:.6g} {metric['unit']}{share}")
        covered = sum(v for k, v in values.items() if k.endswith("_s") and not k.endswith("wall_s"))
        print(f"{name}  self times + root self = {covered:.6f} s of traced wall {wall:.6f} s "
              f"per set-up + op; overhead {values['trace.overhead_frac']:+.2%}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "delaysde" / "__init__.py").is_file():
        print(f"error: no delaysde package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**40:
        print("error: --seed must lie in [0, 2**40)", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    results = {}
    try:
        for name in names if args.workload == "all" else [args.workload]:
            results[name] = run_workload(argparse.Namespace(**dict(vars(args), workload=name)), spec)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
