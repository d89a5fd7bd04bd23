"""Batch experiment runner: INI configs, deterministic seeding, CSV/JSON output.

The INI file is parsed once.  Its values are interpolated once, as
configparser reads them (a literal % is written %%); the command-line flags
replace the values of their keys and are taken literally.  Each scenario
handler returns its verdict and metrics, which run writes to verdict.json.

`simulate`, `couple`, `harnack` and `bihari` decompose their paths into
CHUNK-path chunks keyed by path index and map them with rng.map_columns over
--workers processes, so the emitted bytes do not depend on the worker count;
reruns with the same config and seed are byte-identical.  The per-run
set-up, including the u solve of `couple` and `harnack`, is built once
before worker processes fork.  `girsanov-check` and `gradient` chunk
serially inside the library.  The output directory is checked before any
scenario work.

Exit codes: 0 all asserted properties pass, 1 any failure, 2 inconclusive
(degenerate weights) or a numerical failure (grid coverage, sup |grad u| >= 1
or a non-contracting Picard diagnostic, Theta^{-1} non-convergence, singular
diffusion, explosion before the horizon, a gradient check whose variance is
at its numerical floor), 3 config error, command-line usage
errors included.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy

from . import __version__
from .bihari import apriori_columns, apriori_report, check_kappa
from .coupling import CouplingConfig, entropy_cost, run_coupling_batch
from .girsanov import SingularDiffusionError, direct_estimate, weak_estimate
from .harnack import EPS_FD_RANGE, DegenerateVarianceError, ExplosionBeforeHorizonError
from .harnack import check_gradient_estimate, log_harnack_columns, log_harnack_report
from .measure import (
    GridMismatchError,
    Segment,
    check_shift_domination,
    constant_segment,
    grid_count,
    make_measure,
)
from .model import check_param, dini_check, make_functional, make_model, validate_assumptions
from .rng import KEY_LIMIT, map_columns
from .solver import SolverConfig, simulate
from .zvonkin import (
    CoverageError,
    DivergenceError,
    InverseConvergenceError,
    needs_transform,
    solve_u,
    transformed_model,
    verify_decay,
)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "resolved_config", "run", "main"]

SCENARIOS = (
    "simulate", "validate", "girsanov-check", "couple",
    "harnack", "gradient", "zvonkin", "bihari",
)
# 2: non-finite floats are written as null; 3: verdict.json carries the
# resolved configuration and the library versions
SCHEMA_VERSION = 3
CHUNK = 1024  # fixed decomposition unit; independent of the worker count

_ALLOWED = {
    "experiment": {"scenario", "n_paths", "base_seed", "output", "format", "workers"},
    "model": {"name", "lam", "beta", "sigma", "d", "x0"},
    "measure": {"kind", "r0", "lam", "density", "weights"},
    "solver": {"h", "t_end", "scheme", "trunc_level"},
    "coupling": {"T", "K", "distance0", "distance_seg", "lam_u"},
    "zvonkin": {"lams", "T", "x_max", "n_x", "n_t"},
    "girsanov": {"functional", "T"},
    "gradient": {"T", "eps_fd", "functional"},
    "bihari": {"T"},
}
# the scenarios that read each solver key that not every scenario reads;
# any other scenario refuses the key
_SOLVER_KEY_READERS = {
    "trunc_level": ("simulate", "bihari"),
    "scheme": ("simulate", "bihari", "girsanov-check"),
}
_EXIT_CODES = {"pass": 0, "fail": 1, "inconclusive": 2}
# verdicts that need standard errors, so at least two paths; every other needs one
_MIN_PATHS = {"girsanov-check": 2, "couple": 2, "harnack": 2, "gradient": 2}
# library failures of a valid config: exit 2, one stderr line naming the error
_NUMERICAL_ERRORS = (
    CoverageError,
    DivergenceError,
    InverseConvergenceError,
    SingularDiffusionError,
    ExplosionBeforeHorizonError,
    DegenerateVarianceError,
)


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"[{field_name}] {message}")
        self.field = field_name
        self.message = message

    def __reduce__(self):
        # rebuild from the two parts, not from the joined message in args
        return type(self), (self.field, self.message)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 3), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError("command line", message)


@dataclass
class ExperimentConfig:
    scenario: str
    n_paths: int
    base_seed: int
    output: str
    format: str
    workers: int
    raw: dict = field(default_factory=dict)  # picklable section -> key -> str


def parse_config(text: str, flags: dict | None = None) -> ExperimentConfig:
    """Parse and validate a flat key=value INI config.  flags (section ->
    key -> str) replace the file's values and are taken literally; the
    file's values are interpolated once, as configparser does."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        cp.read_string(text)
        raw = {sec: dict(cp[sec]) for sec in cp.sections()}
    except configparser.Error as e:  # its message spans lines; one line on stderr
        raise ConfigError("syntax", str(e).replace("\n", " ")) from e
    for sec, keys in (flags or {}).items():
        raw.setdefault(sec, {}).update(keys)
    for sec, keys in raw.items():
        if sec not in _ALLOWED:
            raise ConfigError(sec, f"unknown section; expected one of {sorted(_ALLOWED)}")
        for key in keys:
            if key not in _ALLOWED[sec]:
                raise ConfigError(
                    f"{sec}.{key}", f"unknown key; allowed: {sorted(_ALLOWED[sec])}"
                )
    exp = raw.get("experiment", {})
    scenario = exp.get("scenario", "")
    if scenario not in SCENARIOS:
        raise ConfigError(
            "experiment.scenario", f"got {scenario!r}; valid scenarios: {', '.join(SCENARIOS)}"
        )
    for key, readers in _SOLVER_KEY_READERS.items():
        if key in raw.get("solver", {}) and scenario not in readers:
            only = f"{', '.join(readers[:-1])} and {readers[-1]}"
            raise ConfigError(
                f"solver.{key}", f"scenario {scenario} does not read it; only {only} do"
            )
    fmt = exp.get("format", "json")
    if fmt not in ("csv", "json"):
        raise ConfigError("experiment.format", f"got {fmt!r}; expected csv or json")
    try:
        n_paths = int(exp.get("n_paths", "1000"))
        base_seed = int(exp.get("base_seed", "0"))
        workers = int(exp.get("workers", "1"))
    except ValueError as e:
        raise ConfigError("experiment", f"non-integer count: {e}") from e
    need = _MIN_PATHS.get(scenario, 1)
    if n_paths < need:
        raise ConfigError("experiment.n_paths", f"need n_paths >= {need}, got {n_paths}")
    # girsanov-check keys its reweighted paths with base_seed + 1
    if not 0 <= base_seed <= KEY_LIMIT - 2:
        raise ConfigError(
            "experiment.base_seed", f"need 0 <= base_seed <= {KEY_LIMIT - 2}, got {base_seed}"
        )
    if workers < 1:
        raise ConfigError("experiment.workers", "need workers >= 1")
    cfg = ExperimentConfig(
        scenario=scenario, n_paths=n_paths, base_seed=base_seed,
        output=exp.get("output", "."), format=fmt, workers=workers, raw=raw,
    )
    _build(cfg)  # surface grid and field errors at parse time
    return cfg


def _getf(raw, sec, key, default=None):
    v = raw.get(sec, {}).get(key)
    if v is None:
        if default is None:
            raise ConfigError(f"{sec}.{key}", "missing required field")
        return default
    try:
        return float(v)
    except ValueError as e:
        raise ConfigError(f"{sec}.{key}", f"not a number: {v!r}") from e


def _horizon(raw, sec, default, h=None):
    """[sec] T, which must be finite and positive and, for a horizon the
    paths are stepped to, a multiple of the step h."""
    T = _getf(raw, sec, "T", default)
    if not 0 < T < math.inf:
        raise ConfigError(f"{sec}.T", f"need a finite T > 0, got {T:g}")
    if h is not None:
        try:
            grid_count(T, h, "T")
        except GridMismatchError as e:
            raise ConfigError(f"{sec}.T", str(e)) from e
    return T


def _functional(raw, sec, default, nu):
    name = raw.get(sec, {}).get("functional", default)
    try:
        return name, make_functional(name, nu)[0]
    except ValueError as e:
        raise ConfigError(f"{sec}.functional", str(e)) from e


def _build(cfg: ExperimentConfig):
    """(measure, model, solver config, initial segment) from the raw sections."""
    raw = cfg.raw
    r0 = _getf(raw, "measure", "r0", 1.0)
    h = _getf(raw, "solver", "h", 2.0**-8)
    t_end = _getf(raw, "solver", "t_end", 1.0)
    for name, value in (("solver.h", h), ("measure.r0", r0), ("solver.t_end", t_end)):
        if not 0 < value < math.inf:
            raise ConfigError(name, f"need a finite value > 0, got {value:g}")
    kind = raw.get("measure", {}).get("kind", "exponential")
    try:
        grid_count(r0, h, "measure.r0 / solver.h")
        grid_count(t_end, h, "solver.t_end / solver.h")
        mkw = {}
        if kind == "exponential":
            mkw["lam"] = _getf(raw, "measure", "lam", 1.0)
        elif kind == "uniform":
            mkw["density"] = _getf(raw, "measure", "density", 1.0)
        elif kind == "atoms":
            wtxt = raw.get("measure", {}).get("weights")
            if wtxt is None:
                raise ConfigError("measure.weights", "atoms measure needs explicit weights")
            mkw["weights"] = [float(x) for x in wtxt.split(",")]
        nu = make_measure(kind, r0, h, **mkw)
    except GridMismatchError as e:
        raise ConfigError("grids", str(e)) from e
    except ValueError as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError("measure", str(e)) from e
    msec = dict(raw.get("model", {}))
    name = msec.pop("name", "ou")
    msec.pop("x0", None)
    x0 = _getf(raw, "model", "x0", 1.0)
    if not math.isfinite(x0):
        raise ConfigError("model.x0", f"need a finite x0, got {x0!r}")
    params = {}
    for k, v in msec.items():
        try:
            params[k] = int(v) if k == "d" else float(v)
        except ValueError as e:
            raise ConfigError(f"model.{k}", f"not a number: {v!r}") from e
        try:
            check_param(k, params[k])
        except ValueError as e:
            raise ConfigError(f"model.{k}", str(e)) from e
    try:
        m = make_model(name, measure=nu, **params)
    except ValueError as e:
        raise ConfigError("model.name", str(e)) from e
    scheme = raw.get("solver", {}).get("scheme", "exponential-euler")
    trunc = _getf(raw, "solver", "trunc_level", math.inf)
    try:
        scfg = SolverConfig(h=h, t_end=t_end, scheme=scheme, trunc_level=trunc)
    except (ValueError, GridMismatchError) as e:
        raise ConfigError("solver", str(e)) from e
    xi = constant_segment(nu, x0, d=m.d)
    return nu, m, scfg, xi


def _jsonable(obj):
    """Plain JSON values; non-finite floats become null."""
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def resolved_config(cfg: ExperimentConfig) -> dict:
    """The configuration a run used: the parsed sections after the
    command-line overrides, as INI strings.  `output` and `workers` are left
    out because they do not change the results; keys absent here took their
    defaults."""
    out = {sec: dict(keys) for sec, keys in cfg.raw.items()}
    exp = out.setdefault("experiment", {})
    exp.pop("output", None)
    exp.pop("workers", None)
    exp.update(scenario=cfg.scenario, n_paths=str(cfg.n_paths),
               base_seed=str(cfg.base_seed), format=cfg.format)
    return out


def _check_output(path: str):
    """Before any scenario work: the output directory must exist or be
    creatable, so its nearest existing ancestor must be a writable
    directory.  Nothing is created here, so a run stopped by an error
    leaves no directory behind."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not (os.path.isdir(head) and os.access(head, os.W_OK | os.X_OK)):
        raise ConfigError(
            "experiment.output", f"cannot write to {path!r}: {head!r} is not a writable directory"
        )


def _write_verdict(cfg: ExperimentConfig, verdict: str, metrics: dict):
    os.makedirs(cfg.output, exist_ok=True)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": cfg.scenario,
        "base_seed": cfg.base_seed,
        "n_paths": cfg.n_paths,
        "verdict": verdict,
        "metrics": _jsonable(metrics),
        "config": resolved_config(cfg),
        "versions": {
            "delaysde": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    path = os.path.join(cfg.output, "verdict.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    print(f"{cfg.scenario}: {verdict} ({path})")


def _column_text(col: np.ndarray, null: str | None) -> list:
    """A result column as text: an integer column by str, a float column by
    repr, which is how json writes a float, with each non-finite value
    replaced by null when null is given."""
    if col.dtype.kind != "f":
        return list(map(str, col.tolist()))
    text = list(map(repr, col.tolist()))
    if null is not None:
        for i in np.flatnonzero(~np.isfinite(col)).tolist():
            text[i] = null
    return text


def _write_rows(cfg: ExperimentConfig, header: list, columns: list):
    """result.csv or result.json with one row per entry of the column arrays
    (integer or float, one per header name).

    The JSON text is formatted here: it has the bytes json.dump(payload,
    sort_keys=True, indent=1, allow_nan=False) writes for the rows as lists
    with non-finite floats as null, at a fraction of the time of its
    indenting encoder.  The CSV writes non-finite floats as nan or inf."""
    os.makedirs(cfg.output, exist_ok=True)
    if cfg.format == "csv":
        cells = [_column_text(col, None) for col in columns]
        path = os.path.join(cfg.output, "result.csv")
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
        return
    cells = [_column_text(col, "null") for col in columns]
    rows = "\n  ],\n  [\n   ".join(",\n   ".join(row) for row in zip(*cells))
    path = os.path.join(cfg.output, "result.json")
    with open(path, "w") as fh:
        fh.write('{\n "columns": [\n  ' + ",\n  ".join(map(json.dumps, header)) + "\n ],\n")
        fh.write(' "rows": [\n  [\n   ' + rows + "\n  ]\n ]")
        fh.write(f',\n "schema_version": {SCHEMA_VERSION}\n}}\n')


def _sim_chunk(setup, start, count):
    base_seed, nu, m, scfg, xi = setup
    batch = simulate(m, nu, xi, scfg, base_seed, count, path_offset=start)
    # copies, so that the chunk's full path array is freed here
    term = batch.states[:, -1].copy()
    sup = np.abs(batch.states).max(axis=(1, 2))
    return term, batch.lifetimes, sup


def _couple_chunk(setup, start, count):
    base_seed, nu, tm, cc, xi_t, eta_t = setup
    res = run_coupling_batch(tm, nu, xi_t, eta_t, cc, base_seed, count, path_offset=start)
    return res.tau, res.log_R, res.terminal_segments_equal()


def _pool_map(cfg: ExperimentConfig, fn) -> list:
    """The per-path columns fn(start, count) returns for the CHUNK-path
    chunks of cfg.n_paths, run on cfg.workers processes and joined in path
    order; fn's set-up is built once, in the parent."""
    return map_columns(cfg.n_paths, CHUNK, fn, cfg.workers)


def _coupling_setup(cfg, nu, m, scfg, xi):
    raw = cfg.raw
    T = _horizon(raw, "coupling", 1.0, scfg.h)
    K = _getf(raw, "coupling", "K", 1.0)
    d0 = _getf(raw, "coupling", "distance0", 0.1)
    dseg = _getf(raw, "coupling", "distance_seg", 0.0)
    for key, v in (("K", K), ("distance0", d0), ("distance_seg", dseg)):
        if not math.isfinite(v):
            raise ConfigError(f"coupling.{key}", f"need a finite {key}, got {v:g}")
    try:
        cc = CouplingConfig(T=T, h=scfg.h, K=K)
    except ValueError as e:  # T and solver.h are checked already
        raise ConfigError("coupling.K", str(e)) from e
    if needs_transform(m):
        if not m.Q_bounds.get("Q", 0.0) > 0:  # the u solve needs a diffusion
            raise ConfigError("model.sigma", f"the transform of model {m.name!r} needs sigma > 0")
        lam_u = _getf(raw, "coupling", "lam_u", 16.0)
        if not 0 < lam_u < math.inf:
            raise ConfigError("coupling.lam_u", f"need a finite lam_u > 0, got {lam_u:g}")
        sol = solve_u(m, lam_u, T + nu.r0)
        tm = transformed_model(m, nu, sol)
    else:
        tm = transformed_model(m, nu, None)
    eta_vals = xi.values.copy()
    eta_vals += dseg
    eta_vals[-1] += d0
    xi_t = tm.seg_to_transformed(0.0, xi.values[None], nu.h)[0]
    eta_t = tm.seg_to_transformed(0.0, eta_vals[None], nu.h)[0]
    return tm, cc, xi_t, eta_t


# ---------------------------------------------------------------------------
# scenario handlers: each returns (verdict, metrics)

def _run_simulate(cfg, nu, m, scfg, xi):
    setup = (cfg.base_seed, nu, m, scfg, xi)
    term_all, lifetimes, sup = _pool_map(cfg, partial(_sim_chunk, setup))
    header = ["path", *[f"x{j}" for j in range(m.d)], "lifetime", "sup_norm"]
    _write_rows(cfg, header, [np.arange(cfg.n_paths), *term_all.T, lifetimes, sup])
    return "pass", {
        "terminal_mean": term_all.mean(axis=0),
        "terminal_var": term_all.var(axis=0),
        "explosion_fraction": float(np.mean(~np.isnan(lifetimes))),
    }

def _run_validate(cfg, nu, m, scfg, xi):
    shift = check_shift_domination(nu, scfg.t_end)
    rep = validate_assumptions(m, nu, scfg.t_end, n_samples=max(1000, cfg.n_paths), seed=cfg.base_seed)
    dini = dini_check(m.phi) if m.phi is not None else None
    ok = shift.passed and rep.passed and (dini is None or dini.passed)
    return "pass" if ok else "fail", {
        "shift_domination": {"passed": shift.passed, "worst_ratio": shift.worst_ratio},
        "assumptions": {"a2": rep.a2.passed, "a3": rep.a3.passed, "a4": rep.a4.passed},
        "dini": None if dini is None else {
            "passed": dini.passed, "monotone": dini.monotone,
            "square_concave": dini.square_concave, "convergent": dini.dini_convergent,
        },
    }

def _run_girsanov(cfg, nu, m, scfg, xi):
    raw = cfg.raw
    T = _horizon(raw, "girsanov", scfg.t_end, scfg.h)
    _, f = _functional(raw, "girsanov", "tanh0", nu)
    gcfg = SolverConfig(h=scfg.h, t_end=T, scheme=scfg.scheme)
    direct, d_se = direct_estimate(m, nu, xi, f, T, gcfg, cfg.base_seed, cfg.n_paths)
    west = weak_estimate(m, nu, xi, f, T, gcfg, cfg.base_seed + 1, cfg.n_paths)
    comb = math.sqrt(d_se**2 + west.stderr**2)
    agree = abs(direct - west.unnormalized) <= 3.0 * comb
    mart = abs(west.mean_R - 1.0) <= 3.0 * west.stderr_R
    verdict = "inconclusive" if west.warnings else ("pass" if agree and mart else "fail")
    return verdict, {
        "direct": direct, "direct_stderr": d_se,
        "reweighted": west.unnormalized, "reweighted_stderr": west.stderr,
        "self_normalized": west.self_normalized,
        "mean_R": west.mean_R, "stderr_R": west.stderr_R, "ess": west.ess,
    }

def _run_couple(cfg, nu, m, scfg, xi):
    tm, cc, xi_t, eta_t = _coupling_setup(cfg, nu, m, scfg, xi)
    setup = (cfg.base_seed, nu, tm, cc, xi_t, eta_t)
    tau, log_r, equal = _pool_map(cfg, partial(_couple_chunk, setup))
    _write_rows(cfg, ["path", "tau", "log_R", "terminal_equal"],
                [np.arange(len(tau)), tau, log_r, equal.astype(int)])
    ent = entropy_cost(log_r)
    frac = float((~np.isnan(tau)).mean())
    equal_frac = float(equal.mean())
    mart = abs(ent.mean_R - 1.0) <= 3.0 * ent.stderr_R
    # every pair must meet and end with equal segments, whatever the weights
    if frac < 1.0 or equal_frac < 1.0:
        verdict = "fail"
    elif ent.warnings:  # degenerate weights
        verdict = "inconclusive"
    else:
        verdict = "pass" if mart else "fail"
    return verdict, {
        "coupled_fraction": frac, "terminal_equal_fraction": equal_frac,
        "mean_R": ent.mean_R, "stderr_R": ent.stderr_R, "ess": ent.ess,
        "entropy_selfnorm": ent.value,
    }

def _run_harnack(cfg, nu, m, scfg, xi):
    tm, cc, xi_t, eta_t = _coupling_setup(cfg, nu, m, scfg, xi)
    f, _ = make_functional("tanh0_pos", nu)
    columns = partial(log_harnack_columns, tm, nu, f, xi_t, eta_t, cc, cfg.base_seed)
    rep = log_harnack_report(*_pool_map(cfg, columns), nu, xi_t, eta_t, cc)
    if np.array_equal(xi_t, eta_t):
        verdict = "pass" if rep.jensen_ok else "fail"
    else:
        verdict = rep.verdict
    return verdict, {
        "lhs": rep.lhs, "rhs": rep.rhs, "margin_sigma": rep.margin_sigma,
        "entropy": rep.entropy, "coupled_fraction": rep.coupled_fraction,
        "jensen_ok": rep.jensen_ok, "mean_R": rep.mean_R,
    }

def _run_gradient(cfg, nu, m, scfg, xi):
    raw = cfg.raw
    T = _horizon(raw, "gradient", 1.0, scfg.h)
    eps = _getf(raw, "gradient", "eps_fd", 0.01)
    if not EPS_FD_RANGE[0] <= eps <= EPS_FD_RANGE[1]:
        raise ConfigError("gradient.eps_fd", f"got {eps:g}; need a value in {list(EPS_FD_RANGE)}")
    fname, f = _functional(raw, "gradient", "coord0", nu)
    direction = np.zeros((nu.n_cells + 1, m.d))
    direction[-1, 0] = 1.0
    rep = check_gradient_estimate(
        m, nu, f, xi.values, direction, T, scfg.h, eps, cfg.n_paths, cfg.base_seed
    )
    metrics = {"D": rep.D, "D_stderr": rep.D_stderr, "V": rep.V, "ratio": rep.ratio}
    verdict = "pass"
    if m.name == "ou" and fname == "coord0":
        oracle = math.exp(-m.params["lam"] * (T + nu.r0))
        metrics["oracle"] = oracle
        if not abs(rep.D - oracle) <= 2.0 * eps**2 + 3.0 * rep.D_stderr:
            verdict = "fail"
    return verdict, metrics

def _run_zvonkin(cfg, nu, m, scfg, xi):
    raw = cfg.raw
    if not m.Q_bounds.get("Q", 0.0) > 0:
        raise ConfigError("model.sigma", f"the transform of model {m.name!r} needs sigma > 0")
    T = _horizon(raw, "zvonkin", 1.0)
    try:
        lams = [float(x) for x in raw.get("zvonkin", {}).get("lams", "2,4,8,16,32").split(",")]
    except ValueError as e:
        raise ConfigError("zvonkin.lams", f"need comma-separated numbers: {e}") from e
    if not min(lams) > 0:
        raise ConfigError("zvonkin.lams", "need every lam > 0")
    kw = {}
    for key in ("x_max", "n_x", "n_t"):
        if key in raw.get("zvonkin", {}):
            v = _getf(raw, "zvonkin", key)
            if key == "x_max":
                ok, need = 0 < v < math.inf, "a finite x_max > 0"
            else:  # np.gradient and the time step need two nodes
                ok, need = v.is_integer() and v >= 2, f"an integer {key} >= 2"
            if not ok:
                raise ConfigError(f"zvonkin.{key}", f"need {need}, got {v:g}")
            kw[key] = v if key == "x_max" else int(v)
    rep = verify_decay(m, lams, T, **kw)
    ok = rep.monotone and rep.lam_star is not None
    return "pass" if ok else "fail", {
        "lams": rep.lams, "u_sup": rep.u_sups, "du_sup": rep.du_sups,
        "d2u_sup": rep.d2u_sups, "lam_star": rep.lam_star, "monotone": rep.monotone,
    }

def _run_bihari(cfg, nu, m, scfg, xi):
    if m.bihari is None:
        raise ConfigError("model.name", f"model {m.name!r} declares no (Phi, h) growth data")
    T = _horizon(cfg.raw, "bihari", scfg.t_end, scfg.h)
    if T > scfg.t_end:
        raise ConfigError("bihari.T", f"need T <= solver.t_end = {scfg.t_end:g}, got {T:g}")
    try:
        check_kappa(nu, T)
    except ValueError as e:
        raise ConfigError("measure", str(e)) from e
    columns = partial(apriori_columns, m, nu, xi, scfg, T, cfg.base_seed)
    rep = apriori_report(*_pool_map(cfg, columns), m, nu, xi, T)
    return "pass" if rep.passed else "fail", {
        "pass_fraction": rep.pass_fraction, "K1": rep.K1, "K2": rep.K2,
        "alpha_mean": rep.alpha_mean, "worst_margin": rep.worst_margin,
    }


_HANDLERS = {
    "simulate": _run_simulate,
    "validate": _run_validate,
    "girsanov-check": _run_girsanov,
    "couple": _run_couple,
    "harnack": _run_harnack,
    "gradient": _run_gradient,
    "zvonkin": _run_zvonkin,
    "bihari": _run_bihari,
}


def run(cfg: ExperimentConfig) -> int:
    _check_output(cfg.output)
    nu, m, scfg, xi = _build(cfg)
    verdict, metrics = _HANDLERS[cfg.scenario](cfg, nu, m, scfg, xi)
    _write_verdict(cfg, verdict, metrics)
    return _EXIT_CODES[verdict]


def main(argv=None) -> int:
    p = _ArgumentParser(prog="delaysde", description=__doc__)
    p.add_argument("scenario", choices=SCENARIOS)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--paths", type=int)
    p.add_argument("--step", type=float)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--workers", type=int)
    try:
        args = p.parse_args(argv)
        with open(args.config) as fh:
            text = fh.read()
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    exp = {"scenario": args.scenario, "base_seed": args.seed, "n_paths": args.paths,
           "output": args.out, "format": args.format, "workers": args.workers}
    flags = {"experiment": {k: str(v) for k, v in exp.items() if v is not None}}
    if args.step is not None:
        flags["solver"] = {"h": repr(args.step)}
    try:
        return run(parse_config(text, flags))
    except (ConfigError, GridMismatchError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as e:
        print(f"numerical error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
