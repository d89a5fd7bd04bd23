"""Monte Carlo estimates of the semigroup P_T f: direct_estimate, the one plain
estimator, and importance-weighted ones.

The reference process Z of weak_estimate is the target model with b and B
replaced by zero, so it keeps only the linear part and the noise; the removed
drift is compensated by the exponential density R built from the shift
psi = Q*(QQ*)^{-1}(b + B).  Left-endpoint accumulation makes
each discrete factor conditionally unit-mean lognormal, so E[R] = 1 exactly at
any step size, which keeps the martingale checks sharp.

Neither estimator stores a path: each batch keeps a ring of n0 + 2 rows per
path (see solver.simulate), from which f reads the terminal segment, and
weak_estimate has simulate accumulate log R in the step of Z.  log_density
sums the same per-step increment, solver.log_r_increment, over a stored
batch.  Both reduce the per-path columns that rng.map_columns joins over
ESTIMATOR_CHUNK-path chunks on `workers` processes, so neither the chunk
size nor the worker count enters their numbers, and both refuse a path
dying before T.

A diffusion declared constant (dQ = 0) in d = dbar = 1 is read once per
step, and model.solve_qqt solves the shift in scalar form, q (v / (q q)).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .measure import DelayMeasure, Rows, Segment, delay_averages
# solve_qqt, the solve inside the shift psi, stays importable from here
from .model import ModelSpec, SingularDiffusionError, _zero_b, _zero_B, solve_qqt
from .rng import map_columns, mean_stderr
from .solver import SolverConfig, log_r_increment, simulate

__all__ = [
    "SingularDiffusionError",
    "WeakEstimate",
    "log_density",
    "weak_estimate",
    "terminal_f",
    "direct_estimate",
]

def log_density(m: ModelSpec, nu: DelayMeasure, batch, cfg: SolverConfig) -> np.ndarray:
    """log R along a stored path batch: sum <psi_k, dW_k> - (h/2) sum |psi_k|^2,
    by the solver.log_r_increment that simulate sums in its step when given
    log_r_model=m."""
    n0 = nu.n0(cfg.h)
    steps = batch.dW.shape[1]
    if batch.states.shape[1] != n0 + steps + 1:
        raise ValueError("log_density reads every row: simulate the batch with keep_path=True")
    log_r = np.zeros(batch.n_paths)
    averages = delay_averages(nu, Rows.stored(batch.states), batch.path_offset)
    for k in range(steps):
        x = batch.states[:, n0 + k]
        log_r += log_r_increment(m, k * cfg.h, x, next(averages), batch.dW[:, k], cfg.h)
    return log_r


@dataclass
class WeakEstimate:
    unnormalized: float
    self_normalized: float
    stderr: float
    mean_R: float
    stderr_R: float
    ess: float
    n_paths: int
    warnings: list = field(default_factory=list)


def weak_estimate(
    m: ModelSpec,
    nu: DelayMeasure,
    xi: Segment,
    f,
    T: float,
    cfg: SolverConfig,
    base_seed: int,
    n_paths: int,
    workers: int = 1,
) -> WeakEstimate:
    """E[f(X_T-segment)] estimated as E[R f(Z_T-segment)] under the reference law.

    Z drops b and B; R restores them.  Returns both the unnormalized and the
    self-normalized importance estimates with the martingale diagnostics
    over n_paths >= 2 paths; a Z path dying before T raises
    ExplosionBeforeHorizonError, as in direct_estimate.
    """
    if abs(cfg.t_end - T) > 1e-12:
        raise ValueError("cfg.t_end must equal the functional horizon T")
    if n_paths < 2:
        raise ValueError("need n_paths >= 2 for a standard error")
    ref = replace(m, name=f"{m.name}[linear]", b=_zero_b, B=_zero_B)

    def columns(offset, count):
        batch = simulate(ref, nu, xi, cfg, base_seed, count, path_offset=offset,
                         keep_path=False, log_r_model=m)
        batch.check_horizon(cfg.t_end)
        r = np.exp(batch.log_r)
        return r, r * np.asarray(f(batch.terminal_segments()), dtype=float)

    r, rf = map_columns(n_paths, rng.ESTIMATOR_CHUNK, columns, workers)
    mean_rf, se_rf = mean_stderr(rf)
    mean_r, se_r = mean_stderr(r)
    s_r = np.sum(r)
    ess = s_r**2 / max(np.sum(r * r), 1e-300)
    warnings = []
    if ess < 0.01 * n_paths:
        warnings.append(
            f"degenerate importance weights: ess={ess:.1f} of {n_paths} paths"
        )
    return WeakEstimate(
        unnormalized=float(mean_rf),
        self_normalized=float(np.sum(rf) / max(s_r, 1e-300)),
        stderr=float(se_rf),
        mean_R=float(mean_r),
        stderr_R=float(se_r),
        ess=float(ess),
        n_paths=n_paths,
        warnings=warnings,
    )


def terminal_f(m, nu, f, xi_vals, cfg, base_seed, n_paths, path_offset=0, dW=None) -> np.ndarray:
    """f at the t_end segments of paths from xi_vals (n0+1, d); a path dying
    by then is an ExplosionBeforeHorizonError."""
    batch = simulate(m, nu, Segment(xi_vals), cfg, base_seed, n_paths, path_offset, dW,
                     keep_path=False)
    batch.check_horizon(cfg.t_end)
    return np.asarray(f(batch.terminal_segments()), dtype=float)


def direct_estimate(
    m: ModelSpec,
    nu: DelayMeasure,
    xi: Segment,
    f,
    T: float,
    cfg: SolverConfig,
    base_seed: int,
    n_paths: int,
    workers: int = 1,
) -> tuple[float, float]:
    """Plain Monte Carlo (mean, stderr) of P_T f(xi) over n_paths >= 2 paths,
    sampled by terminal_f."""
    if abs(cfg.t_end - T) > 1e-12:
        raise ValueError("cfg.t_end must equal the functional horizon T")
    if n_paths < 2:
        raise ValueError("need n_paths >= 2 for a standard error")

    def columns(offset, count):
        return (terminal_f(m, nu, f, xi.values, cfg, base_seed, count, path_offset=offset),)

    mean, se = mean_stderr(*map_columns(n_paths, rng.ESTIMATOR_CHUNK, columns, workers))
    return float(mean), float(se)
