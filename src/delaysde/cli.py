"""Batch experiment runner: INI configs, deterministic seeding, CSV/JSON output.

The INI file is parsed once.  Its values are interpolated once, as
configparser reads them (a literal % is written %%); the command-line flags
replace the values of their keys and are taken literally.

_KEYS declares each key once: parser, default, single-value check and the
scenarios that read it.  parse_config reads every key the run reads into its
record, defaults included; the handlers read the record and verdict.json
holds it.  A key that the run does not read is refused when the scenario
reads its section; a section it does not read at all is passed over.

Every path scenario decomposes its paths into chunks keyed by path index and
maps them with rng.map_columns over --workers processes: `simulate` and
`couple` directly, in rng.STORED_ROW_CHUNK chunks, and `girsanov-check`,
`harnack`, `gradient` and `bihari` through the library check they run.  So
the emitted bytes do not depend on the worker count, and reruns with the
same config and seed are byte-identical.  The per-run set-up, including the
u solve of `couple` and `harnack`, is built once before worker processes
fork.  The output directory is checked before any scenario work.

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

from . import __version__, rng
from .bihari import apriori_check, check_kappa
from .coupling import CouplingConfig, entropy_cost, meeting_radius, run_coupling_batch
from .girsanov import SingularDiffusionError, direct_estimate, weak_estimate
from .harnack import EPS_FD_RANGE, DegenerateVarianceError, ExplosionBeforeHorizonError
from .harnack import check_gradient_estimate, check_log_harnack
from .measure import (
    GridMismatchError,
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
    picard_u,
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
# resolved configuration and the library versions; 4: that configuration
# holds every key the run read, defaults included
SCHEMA_VERSION = 4
_EXIT_CODES = {"pass": 0, "fail": 1, "inconclusive": 2}
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


# ---------------------------------------------------------------------------
# the config table

# defaults that are not values: a key without one, the catalog entry's own, t_end's
_REQUIRED, _FROM_MODEL, _T_END = "required", "model entry", "solver.t_end"


@dataclass(frozen=True)
class _Key:
    parse: object  # text -> value, ValueError on bad text
    default: object  # a value, _REQUIRED, _FROM_MODEL or _T_END
    check: object = None  # check(value, scenario), ValueError on a bad value
    readers: tuple = SCENARIOS
    kind: str | None = None  # a [measure] key that only this kind reads


def _text(value) -> str:
    """A record value as the INI text that reads back to it."""
    if isinstance(value, (list, tuple)):
        return ",".join(map(_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _need(test, text):
    """The check that a value passes test, else ValueError "need {text}"."""
    def check(value, scenario):
        if not test(value):
            raise ValueError(f"need {text}, got {_text(value)}")
    return check


def _param(key):
    return lambda value, scenario: check_param(key, value)  # the catalog's own check


def _enough_paths(n, scenario):
    # a verdict on standard errors needs two paths; every other needs one
    need = 2 if scenario in ("girsanov-check", "couple", "harnack", "gradient") else 1
    if n < need:
        raise ValueError(f"need n_paths >= {need}, got {n}")


def _default_of(fn, name):
    import inspect  # loaded by numpy already; read once, as the table is built
    return inspect.signature(fn).parameters[name].default


_POSITIVE = _need(lambda v: 0 < v < math.inf, "a finite value > 0")
_FINITE = _need(math.isfinite, "a finite value")
_AT_LEAST_2 = _need(lambda v: v >= 2, "an integer >= 2")  # np.gradient and a time step
# girsanov-check keys its reweighted paths with base_seed + 1
_SEED = _need(lambda v: 0 <= v <= KEY_LIMIT - 2, f"0 <= base_seed <= {KEY_LIMIT - 2}")
_EPS_FD = _need(lambda v: EPS_FD_RANGE[0] <= v <= EPS_FD_RANGE[1], f"eps_fd in {list(EPS_FD_RANGE)}")
_SCENARIO = _need(SCENARIOS.__contains__, f"one of {', '.join(SCENARIOS)}")
_COUPLED = ("couple", "harnack")
# (section, key) -> how a run reads it; README.md's config table lists the
# same keys and defaults
_KEYS = {
    ("experiment", "scenario"): _Key(str, _REQUIRED, _SCENARIO),
    ("experiment", "n_paths"): _Key(int, 1000, _enough_paths),
    ("experiment", "base_seed"): _Key(int, 0, _SEED),
    ("experiment", "output"): _Key(str, "."),
    ("experiment", "format"): _Key(str, "json", _need(("csv", "json").__contains__, "csv or json")),
    ("experiment", "workers"): _Key(int, 1, _need(lambda v: v >= 1, "workers >= 1")),
    ("model", "name"): _Key(str, "ou"),
    ("model", "x0"): _Key(float, 1.0, _FINITE),
    ("model", "d"): _Key(int, _FROM_MODEL, _param("d")),
    ("model", "lam"): _Key(float, _FROM_MODEL, _param("lam")),
    ("model", "beta"): _Key(float, _FROM_MODEL, _param("beta")),
    ("model", "sigma"): _Key(float, _FROM_MODEL, _param("sigma")),
    ("measure", "kind"): _Key(str, "exponential", _need(
        ("exponential", "uniform", "atoms").__contains__, "exponential, uniform or atoms")),
    ("measure", "r0"): _Key(float, 1.0, _POSITIVE),
    ("measure", "lam"): _Key(float, 1.0, kind="exponential"),
    ("measure", "density"): _Key(float, _default_of(make_measure, "density"), kind="uniform"),
    ("measure", "weights"): _Key(_floats, _REQUIRED, kind="atoms"),
    ("solver", "h"): _Key(float, 2.0**-8, _POSITIVE),
    ("solver", "t_end"): _Key(float, 1.0, _POSITIVE),
    ("solver", "scheme"): _Key(str, SolverConfig.scheme, None, ("simulate", "bihari", "girsanov-check")),
    ("solver", "trunc_level"): _Key(float, SolverConfig.trunc_level, None, ("simulate", "bihari")),
    ("coupling", "T"): _Key(float, 1.0, _POSITIVE, _COUPLED),
    ("coupling", "K"): _Key(float, _REQUIRED, _FINITE, _COUPLED),
    ("coupling", "distance0"): _Key(float, _REQUIRED, _FINITE, _COUPLED),
    ("coupling", "distance_seg"): _Key(float, 0.0, _FINITE, _COUPLED),
    ("coupling", "lam_u"): _Key(float, 16.0, _POSITIVE, _COUPLED),
    ("girsanov", "functional"): _Key(str, "tanh0", None, ("girsanov-check",)),
    ("girsanov", "T"): _Key(float, _T_END, _POSITIVE, ("girsanov-check",)),
    ("gradient", "T"): _Key(float, 1.0, _POSITIVE, ("gradient",)),
    ("gradient", "eps_fd"): _Key(float, 0.01, _EPS_FD, ("gradient",)),
    ("gradient", "functional"): _Key(str, "coord0", None, ("gradient",)),
    ("zvonkin", "lams"): _Key(_floats, (2.0, 4.0, 8.0, 16.0, 32.0),
                              _need(lambda v: min(v) > 0, "every lam > 0"), ("zvonkin",)),
    ("zvonkin", "T"): _Key(float, 1.0, _POSITIVE, ("zvonkin",)),
    ("zvonkin", "x_max"): _Key(float, _default_of(picard_u, "x_max"), _POSITIVE, ("zvonkin",)),
    ("zvonkin", "n_x"): _Key(int, _default_of(picard_u, "n_x"), _AT_LEAST_2, ("zvonkin",)),
    ("zvonkin", "n_t"): _Key(int, _default_of(picard_u, "n_t"), _AT_LEAST_2, ("zvonkin",)),
    ("bihari", "T"): _Key(float, _T_END, _POSITIVE, ("bihari",)),
}


@dataclass
class ExperimentConfig:
    scenario: str
    n_paths: int
    base_seed: int
    output: str
    format: str
    workers: int
    record: dict = field(default_factory=dict)  # picklable section -> key -> value read


def _read(raw: dict, rec: dict, sec: str, key: str, scenario):
    """Read one key into rec: its given text parsed and checked, or its default."""
    spec, text = _KEYS[sec, key], raw.get(sec, {}).get(key)
    if text is not None:
        try:
            value = spec.parse(text)
            if spec.check is not None:
                spec.check(value, scenario)
        except ValueError as e:
            raise ConfigError(f"{sec}.{key}", str(e)) from e
    elif spec.default is _REQUIRED:
        raise ConfigError(f"{sec}.{key}", "missing required field")
    elif spec.default is _FROM_MODEL:  # parse_config records the built model's
        return
    else:
        value = rec["solver"]["t_end"] if spec.default is _T_END else spec.default
    rec.setdefault(sec, {})[key] = value


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
        allowed = sorted(k for s, k in _KEYS if s == sec)
        if not allowed:
            raise ConfigError(sec, f"unknown section; expected one of {sorted({s for s, _ in _KEYS})}")
        for key in keys:
            if key not in allowed:
                raise ConfigError(f"{sec}.{key}", f"unknown key; allowed: {allowed}")
    rec = {}
    _read(raw, rec, "experiment", "scenario", None)  # the key that selects the readers
    scenario = rec["experiment"]["scenario"]
    sections = {sec for (sec, _), spec in _KEYS.items() if scenario in spec.readers}
    for (sec, key), spec in _KEYS.items():
        if sec not in sections or (sec, key) == ("experiment", "scenario"):
            continue
        kind = rec.get("measure", {}).get("kind")
        if scenario in spec.readers and spec.kind in (None, kind):
            _read(raw, rec, sec, key, scenario)
        elif key in raw.get(sec, {}):
            who = f"measure kind {kind}" if scenario in spec.readers else f"scenario {scenario}"
            only = spec.kind or ", ".join(spec.readers)
            raise ConfigError(f"{sec}.{key}", f"{who} does not read it, only {only}")
    cfg = ExperimentConfig(**rec["experiment"], record=rec)
    m = _build(cfg)[1]  # surface grid and field errors at parse time
    rec["model"].update(d=m.d, **m.params)  # the entry's own keys, defaults included
    return cfg


def _build(cfg: ExperimentConfig):
    """(measure, model, solver config, initial segment) from the record."""
    rec = cfg.record
    h, t_end = rec["solver"]["h"], rec["solver"]["t_end"]
    measure = dict(rec["measure"])  # kind, r0 and the kind's own key
    kind, r0 = measure.pop("kind"), measure.pop("r0")
    try:
        grid_count(r0, h, "measure.r0 / solver.h")
        grid_count(t_end, h, "solver.t_end / solver.h")
        nu = make_measure(kind, r0, h, **measure)
    except GridMismatchError as e:
        raise ConfigError("grids", str(e)) from e
    except ValueError as e:
        raise ConfigError("measure", str(e)) from e
    params = dict(rec["model"])
    name, x0 = params.pop("name"), params.pop("x0")
    unread = []
    try:
        # the entry at its defaults names the keys it reads: the field of a refused one
        unread = [k for k in params if k != "d" and k not in make_model(name, measure=nu).params]
        m = make_model(name, measure=nu, **params)
    except ValueError as e:
        raise ConfigError(f"model.{unread[0]}" if unread else "model.name", str(e)) from e
    try:
        scfg = SolverConfig(**rec["solver"])
    except (ValueError, GridMismatchError) as e:
        raise ConfigError("solver", str(e)) from e
    return nu, m, scfg, constant_segment(nu, x0, d=m.d)


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
    """The configuration a run read: every key of its record, defaults
    included, as the INI text that reads back to the same value.  `output`
    and `workers` are left out because they do not change the results, and
    a section the scenario does not read is not in the record."""
    out = {sec: {key: _text(v) for key, v in keys.items()} for sec, keys in cfg.record.items()}
    del out["experiment"]["output"], out["experiment"]["workers"]
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


def _on_grid(sec: str, T: float, h: float) -> float:
    """[sec] T, a horizon the paths are stepped to, which must be a multiple of h."""
    try:
        grid_count(T, h, "T")
    except GridMismatchError as e:
        raise ConfigError(f"{sec}.T", str(e)) from e
    return T


def _functional(cfg, sec, nu):
    try:
        return make_functional(cfg.record[sec]["functional"], nu)[0]
    except ValueError as e:
        raise ConfigError(f"{sec}.functional", str(e)) from e


def _check_sigma(m):
    """ConfigError unless m has a diffusion, sigma > 0, which the u solve of
    its transform needs."""
    if not m.Q_bounds.get("Q", 0.0) > 0:
        raise ConfigError("model.sigma", f"the transform of model {m.name!r} needs sigma > 0")


def _coupling_setup(cfg, nu, m, scfg, xi):
    c = cfg.record["coupling"]
    T = _on_grid("coupling", c["T"], scfg.h)
    try:
        cc = CouplingConfig(T=T, h=scfg.h, K=c["K"])
    except ValueError as e:  # T and solver.h are checked already
        raise ConfigError("coupling.K", str(e)) from e
    sol = None
    if needs_transform(m):
        _check_sigma(m)
        sol = solve_u(m, c["lam_u"], T + nu.r0)
    tm = transformed_model(m, nu, sol)
    eta_vals = xi.values + c["distance_seg"]
    eta_vals[-1] += c["distance0"]
    xi_t = tm.seg_to_transformed(0.0, xi.values[None], nu.h)[0]
    eta_t = tm.seg_to_transformed(0.0, eta_vals[None], nu.h)[0]
    try:
        meeting_radius(xi_t, eta_t)
    except ValueError as e:
        raise ConfigError("coupling.distance0", str(e)) from e
    return tm, cc, xi_t, eta_t


# ---------------------------------------------------------------------------
# scenario handlers: each returns (verdict, metrics)

def _run_simulate(cfg, nu, m, scfg, xi):
    setup = (cfg.base_seed, nu, m, scfg, xi)
    columns = partial(_sim_chunk, setup)
    term_all, lifetimes, sup = map_columns(cfg.n_paths, rng.STORED_ROW_CHUNK, columns, cfg.workers)
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
    T = _on_grid("girsanov", cfg.record["girsanov"]["T"], scfg.h)
    f = _functional(cfg, "girsanov", nu)
    gcfg = SolverConfig(h=scfg.h, t_end=T, scheme=scfg.scheme)
    direct, d_se = direct_estimate(m, nu, xi, f, T, gcfg, cfg.base_seed, cfg.n_paths, cfg.workers)
    west = weak_estimate(m, nu, xi, f, T, gcfg, cfg.base_seed + 1, cfg.n_paths, cfg.workers)
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
    columns = partial(_couple_chunk, setup)
    tau, log_r, equal = map_columns(cfg.n_paths, rng.STORED_ROW_CHUNK, columns, cfg.workers)
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
    rep = check_log_harnack(tm, nu, f, xi_t, eta_t, cc.T, cc.h, cc.K, cfg.n_paths, cfg.base_seed,
                            workers=cfg.workers)
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
    g = cfg.record["gradient"]
    T, eps = _on_grid("gradient", g["T"], scfg.h), g["eps_fd"]
    f = _functional(cfg, "gradient", nu)
    direction = np.zeros((nu.n_cells + 1, m.d))
    direction[-1, 0] = 1.0
    rep = check_gradient_estimate(
        m, nu, f, xi.values, direction, T, scfg.h, eps, cfg.n_paths, cfg.base_seed,
        workers=cfg.workers,
    )
    metrics = {"D": rep.D, "D_stderr": rep.D_stderr, "V": rep.V, "ratio": rep.ratio}
    verdict = "pass"
    if m.name == "ou" and g["functional"] == "coord0":
        oracle = math.exp(-m.params["lam"] * (T + nu.r0))
        metrics["oracle"] = oracle
        if not abs(rep.D - oracle) <= 2.0 * eps**2 + 3.0 * rep.D_stderr:
            verdict = "fail"
    return verdict, metrics

def _run_zvonkin(cfg, nu, m, scfg, xi):
    _check_sigma(m)
    z = dict(cfg.record["zvonkin"])
    rep = verify_decay(m, z.pop("lams"), z.pop("T"), **z)  # and picard_u's x_max, n_x, n_t
    ok = rep.monotone and rep.lam_star is not None
    return "pass" if ok else "fail", {
        "lams": rep.lams, "u_sup": rep.u_sups, "du_sup": rep.du_sups,
        "d2u_sup": rep.d2u_sups, "lam_star": rep.lam_star, "monotone": rep.monotone,
    }

def _run_bihari(cfg, nu, m, scfg, xi):
    if m.bihari is None:
        raise ConfigError("model.name", f"model {m.name!r} declares no (Phi, h) growth data")
    T = _on_grid("bihari", cfg.record["bihari"]["T"], scfg.h)
    if T > scfg.t_end:
        raise ConfigError("bihari.T", f"need T <= solver.t_end = {scfg.t_end:g}, got {T:g}")
    try:
        check_kappa(nu, T)
    except ValueError as e:
        raise ConfigError("measure", str(e)) from e
    rep = apriori_check(m, nu, xi, scfg, T, cfg.n_paths, cfg.base_seed, cfg.workers)
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
