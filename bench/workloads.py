"""The three benchmark workloads.

Each workload has a set-up, one operation ("op") with its correctness checks,
and a reference computation at a pinned seed whose summary values are
compared with ``reference.json``.  Library functions are looked up through
their modules at call time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from delaysde import cli, girsanov, harnack, measure, model, solver, zvonkin

# Width of every Monte Carlo agreement check.  At 3 sigma one op in about
# 370 would fail by chance; at 5 sigma about one in 1.7 million.
SIGMA = 5.0
H8 = 2.0**-8


@dataclass
class OpResult:
    paths: int  # paths, or coupled pairs, the op completed
    errors: list = field(default_factory=list)  # failed checks; empty when correct
    counts: dict = field(default_factory=dict)  # exact per-op counts for the trace


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (workdir) -> state
    op: Callable  # (state, seed, index, memo) -> OpResult
    reference: Callable  # (state) -> {name: summary value}
    min_ops: int  # fewest ops in a timed phase


def _op_seed(seed: int, i: int) -> int:
    return seed * 10_000 + 2 * i


def _sigma_check(errors: list, what: str, got: float, want: float, se: float) -> None:
    if not abs(got - want) <= SIGMA * se:  # also catches NaN
        errors.append(f"{what} {got} beyond {SIGMA} sigma ({se}) of {want}")


def _exponential_measure(h: float):
    return measure.make_measure("exponential", 1.0, h, lam=1.0)


# ---------------------------------------------------------------------------
# reweight: plain-path throughput of direct and Girsanov-reweighted estimates

REWEIGHT_PATHS = 8192


def setup_reweight(workdir):
    nu = _exponential_measure(H8)
    f, _ = model.make_functional("tanh0")
    return {
        "nu": nu,
        "m": model.make_model("reference", measure=nu),
        "xi": measure.constant_segment(nu, 1.0),
        "f": f,
        "cfg": solver.SolverConfig(h=H8, t_end=1.0),
    }


def _reweight(st, seed_direct, seed_weak):
    args = (st["m"], st["nu"], st["xi"], st["f"], 1.0, st["cfg"])
    direct, direct_se = girsanov.direct_estimate(*args, seed_direct, REWEIGHT_PATHS)
    west = girsanov.weak_estimate(*args, seed_weak, REWEIGHT_PATHS)
    return direct, direct_se, west


def op_reweight(st, seed, i, memo):
    base = _op_seed(seed, i)
    direct, direct_se, west = _reweight(st, base, base + 1)
    errors = list(west.warnings)
    _sigma_check(errors, "reweighted", west.unnormalized, direct, math.hypot(direct_se, west.stderr))
    _sigma_check(errors, "E[R]", west.mean_R, 1.0, west.stderr_R)
    return OpResult(2 * REWEIGHT_PATHS, errors)


def reference_reweight(st):
    direct, _, west = _reweight(st, 51, 52)
    return {"direct": direct, "reweighted": west.unnormalized, "mean_R": west.mean_R, "ess": west.ess}


# ---------------------------------------------------------------------------
# couple: log-Harnack chain through the transform, u solved once in set-up

COUPLE_PAIRS = 1024
COUPLE_T = 0.5


def setup_couple(workdir):
    nu = _exponential_measure(H8)
    m = model.make_model("reference", measure=nu)
    sol = zvonkin.solve_u(m, 16.0, COUPLE_T + nu.r0)
    tm = zvonkin.transformed_model(m, nu, sol)
    xi_t = tm.seg_to_transformed(0.0, measure.constant_segment(nu, 0.5).values[None], nu.h)[0]
    eta_t = xi_t.copy()
    eta_t[-1] += 0.1
    f, _ = model.make_functional("tanh0_pos", nu)
    return {"nu": nu, "tm": tm, "xi_t": xi_t, "eta_t": eta_t, "f": f}


def _harnack(st, base_seed):
    return harnack.check_log_harnack(
        st["tm"], st["nu"], st["f"], st["xi_t"], st["eta_t"],
        COUPLE_T, H8, 4.0 / math.sqrt(COUPLE_T), COUPLE_PAIRS, base_seed,
    )


def op_couple(st, seed, i, memo):
    rep = _harnack(st, _op_seed(seed, i))
    errors = []
    if rep.verdict != "pass":
        errors.append(f"log-Harnack verdict {rep.verdict}")
    if rep.coupled_fraction != 1.0:
        errors.append(f"coupled fraction {rep.coupled_fraction}")
    _sigma_check(errors, "E[R]", rep.mean_R, 1.0, rep.stderr_R)
    return OpResult(COUPLE_PAIRS, errors)


def reference_couple(st):
    rep = _harnack(st, 2025)
    return {"lhs": rep.lhs, "entropy": rep.entropy, "mean_R": rep.mean_R}


# ---------------------------------------------------------------------------
# cli: the command-line driver in-process, which re-solves u per chunk

# The README example configuration; the scenario comes from the command line.
CLI_CONFIG = """\
[experiment]
scenario = couple
n_paths = 1000
base_seed = 3

[model]
name = {model}

[measure]
kind = exponential
r0 = 1.0
lam = 1.0

[solver]
h = 0.0078125
t_end = 1.0

[coupling]
T = 0.5
K = 6.0
distance0 = 0.05
distance_seg = 0.05
"""
CLI_COUPLE_PAIRS = 2048
CLI_SIMULATE_PATHS = 20480


def setup_cli(workdir):
    st = {"workdir": workdir}
    for scenario, name in (("couple", "reference"), ("simulate", "linear_delay")):
        path = os.path.join(workdir, f"{scenario}.ini")
        with open(path, "w") as fh:
            fh.write(CLI_CONFIG.format(model=name))
        st[scenario] = path
    return st


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _cli_call(st, scenario, n_paths, seed):
    """Run one scenario; returns (exit code, output dir)."""
    out = os.path.join(st["workdir"], scenario)
    argv = [scenario, "--config", st[scenario], "--paths", str(n_paths),
            "--workers", "1", "--seed", str(seed), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, out


def op_cli(st, seed, i, memo):
    errors = []
    files = {}
    for scenario, n_paths in (("couple", CLI_COUPLE_PAIRS), ("simulate", CLI_SIMULATE_PATHS)):
        rc, out = _cli_call(st, scenario, n_paths, seed)
        if rc != 0:
            errors.append(f"{scenario} exited {rc}")
        for name in ("result.json", "verdict.json"):
            with open(os.path.join(out, name), "rb") as fh:
                files[f"{scenario}/{name}"] = fh.read()
    nonstrict = 0
    for blob in files.values():
        try:
            json.loads(blob, parse_constant=_reject_constant)
        except ValueError:
            nonstrict += 1
    couple = json.loads(files["couple/result.json"])
    simulated = json.loads(files["simulate/result.json"])
    if len(simulated["rows"]) != CLI_SIMULATE_PATHS:
        errors.append(f"simulate wrote {len(simulated['rows'])} rows")
    rows = couple["rows"]
    if len(rows) != CLI_COUPLE_PAIRS:
        errors.append(f"couple wrote {len(rows)} rows")
    col = {c: j for j, c in enumerate(couple["columns"])}
    coupled = np.mean([not math.isnan(row[col["tau"]]) and row[col["terminal_equal"]] == 1 for row in rows])
    if coupled != 1.0:
        errors.append(f"coupled fraction {coupled}")
    r = np.exp([row[col["log_R"]] for row in rows])
    _sigma_check(errors, "E[R]", r.mean(), 1.0, r.std(ddof=1) / math.sqrt(len(r)))
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in files.items()}
    first = memo.setdefault("cli_digests", digests)
    changed = sorted(k for k in digests if digests[k] != first[k])
    if changed:
        errors.append(f"repeated op not byte-identical: {', '.join(changed)}")
    counts = {
        "cli.output_bytes": sum(len(v) for v in files.values()),
        "cli.nonstrict_json_files": nonstrict,
    }
    return OpResult(CLI_COUPLE_PAIRS + CLI_SIMULATE_PATHS, errors, counts)


def reference_cli(st):
    rc, out = _cli_call(st, "simulate", 1024, 3)
    with open(os.path.join(out, "verdict.json")) as fh:
        metrics = json.load(fh)["metrics"]
    return {"exit_code": rc, "terminal_mean": metrics["terminal_mean"][0],
            "terminal_var": metrics["terminal_var"][0]}


WORKLOADS = {
    "reweight": Workload(setup_reweight, op_reweight, reference_reweight, min_ops=1),
    "couple": Workload(setup_couple, op_couple, reference_couple, min_ops=1),
    # the second op repeats the first and must reproduce its bytes
    "cli": Workload(setup_cli, op_cli, reference_cli, min_ops=2),
}
