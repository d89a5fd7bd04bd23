"""The log-Harnack inequality check and the L2 gradient estimate check.

The semigroup P_T f itself is estimated by girsanov.direct_estimate; the
gradient check samples it through the same girsanov.terminal_f.

The inequality test is an exact-chain test: with self-normalized coupling
weights the bound

    E_Q[log f(terminal segment)] <= log E[f] + E_Q[log R]

is an instance of the Gibbs inequality on the empirical sample, so the only
slack needed is the Monte Carlo error of the independently estimated terms.

Each check reports over the per-path columns that rng.map_columns joins in
path order on `workers` processes: check_log_harnack over f at X's terminal
segment, log R and the coupled flag of STORED_ROW_CHUNK chunks of coupled
pairs, check_gradient_estimate over the central-difference and f columns of
ESTIMATOR_CHUNK chunks.  A path's columns do not depend on its chunk, and
each report reads only the joined columns, so no report depends on the
chunk size or the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .coupling import CouplingConfig, entropy_cost, run_coupling_batch
from .girsanov import terminal_f
from .measure import DelayMeasure, batch_seg_norm, grid_count
from .rng import batch_increments, map_columns, mean_stderr
from .solver import ExplosionBeforeHorizonError, SolverConfig
from .zvonkin import TransformedModel

__all__ = [
    "DegenerateVarianceError",
    "ExplosionBeforeHorizonError",
    "check_log_harnack",
    "check_gradient_estimate",
]

EPS_FD_RANGE = (1e-3, 1e-1)  # finite-difference step of check_gradient_estimate


class DegenerateVarianceError(RuntimeError):
    """The variance P f^2 - (P f)^2 of the gradient check is at its numerical
    floor while the derivative is not, so D^2 / V has no finite value (for
    example, a zero diffusion)."""


@dataclass
class HarnackReport:
    lhs: float  # E_Q log f at the terminal segment, from eta
    lhs_stderr: float
    log_pf: float  # log of the mean of f from xi
    log_pf_stderr: float
    entropy: float  # E_Q log R
    entropy_stderr: float
    rhs: float
    margin_sigma: float  # (rhs - lhs) / combined stderr, +inf if exact
    verdict: str  # pass / fail / inconclusive
    coupled_fraction: float
    jensen_ok: bool
    mean_R: float
    stderr_R: float
    fitted_rhs: float | None
    setting: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def check_log_harnack(
    tm: TransformedModel,
    nu: DelayMeasure,
    f,
    xi_t: np.ndarray,
    eta_t: np.ndarray,
    T: float,
    h: float,
    K: float,
    n: int,
    base_seed: int,
    C_fitted: float | None = None,
    workers: int = 1,
) -> HarnackReport:
    """Exact-chain check of P log f(eta) <= log P f(xi) + E_Q log R at 3 sigma.

    One coupling run provides everything: the X sample estimates P f(xi),
    the weighted X sample estimates the left side, and the weights give the
    entropy cost.  The left side reads X's terminal segment as Y's, which
    holds only for pairs that met, so a run with a pair that did not meet
    (a failed row) is inconclusive, with every statistic NaN and jensen_ok
    False.  The pairs run in STORED_ROW_CHUNK chunks, since the
    coupling run stores every row of X and Y, on `workers` processes.  f must
    be strictly positive.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    cc = CouplingConfig(T=T, h=h, K=K)

    def columns(start, count):
        res = run_coupling_batch(tm, nu, xi_t, eta_t, cc, base_seed, count, path_offset=start)
        fv = np.asarray(f(res.x_states[:, -nu.n0(h) - 1 :]), dtype=float)
        return fv, res.log_R, res.coupled

    fv, log_R, coupled = map_columns(n, rng.STORED_ROW_CHUNK, columns, workers)
    if np.any(fv <= 0):
        raise ValueError("log-Harnack check needs a strictly positive f")
    coupled_fraction = float(coupled.mean())
    setting = {"T": T, "h": h, "K": K, "n": n}
    if coupled_fraction < 1.0:
        nan = math.nan
        return HarnackReport(
            lhs=nan, lhs_stderr=nan, log_pf=nan, log_pf_stderr=nan, entropy=nan,
            entropy_stderr=nan, rhs=nan, margin_sigma=nan, verdict="inconclusive",
            coupled_fraction=coupled_fraction, jensen_ok=False, mean_R=nan, stderr_R=nan,
            fitted_rhs=None, setting=setting,
        )
    logf = np.log(fv)
    r = np.exp(log_R)
    ent = entropy_cost(log_R)
    # self-normalized E_Q[log f(X_{T+r0})]; valid because X = Y there under Q
    lhs = float((r * logf).sum() / r.sum())
    resid = r * (logf - lhs)
    lhs_se = float(resid.std(ddof=1) / (ent.mean_R * math.sqrt(n)))
    pf = float(fv.mean())
    pf_se = float(fv.std(ddof=1) / math.sqrt(n))
    log_pf = math.log(pf)
    log_pf_se = pf_se / pf
    rhs = log_pf + ent.value
    sigma = math.sqrt(lhs_se**2 + log_pf_se**2 + ent.stderr**2)
    if ent.warnings:
        verdict = "inconclusive"
    elif lhs <= rhs + 3.0 * sigma:
        verdict = "pass"
    else:
        verdict = "fail"
    jensen_ok = bool(logf.mean() <= math.log(fv.mean()) + 1e-12)
    fitted = None
    if C_fitted is not None:
        d0 = float(np.linalg.norm(np.asarray(xi_t)[-1] - np.asarray(eta_t)[-1]))
        dseg = float(batch_seg_norm(nu, (np.asarray(xi_t) - np.asarray(eta_t))[None])[0])
        fitted = log_pf + C_fitted * (d0**2 / T + dseg**2)
    return HarnackReport(
        lhs=lhs, lhs_stderr=lhs_se, log_pf=log_pf, log_pf_stderr=log_pf_se,
        entropy=ent.value, entropy_stderr=ent.stderr, rhs=rhs,
        margin_sigma=float((rhs - lhs) / sigma) if sigma > 0 else math.inf,
        verdict=verdict,
        coupled_fraction=coupled_fraction,
        jensen_ok=jensen_ok, mean_R=ent.mean_R, stderr_R=ent.stderr_R,
        fitted_rhs=fitted,
        setting=setting,
    )


@dataclass
class GradientReport:
    D: float  # finite-difference directional derivative of P f
    D_stderr: float
    V: float  # P f^2 - (P f)^2
    V_stderr: float
    ratio: float  # D^2 (T and 1) / V
    C_hat: float | None
    passed: bool | None  # None when no fitted constant was supplied
    eps_fd: float
    setting: dict = field(default_factory=dict)


def check_gradient_estimate(
    m,
    nu: DelayMeasure,
    f,
    xi_vals: np.ndarray,
    direction: np.ndarray,
    T: float,
    h: float,
    eps_fd: float,
    n: int,
    base_seed: int,
    C_hat: float | None = None,
    workers: int = 1,
) -> GradientReport:
    """Directional derivative of P_{T+r0} f by central differences with common
    random numbers, against the variance form of the gradient estimate.  The
    paths run in ESTIMATOR_CHUNK chunks on `workers` processes."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not EPS_FD_RANGE[0] <= eps_fd <= EPS_FD_RANGE[1]:
        raise ValueError(f"eps_fd must lie in {list(EPS_FD_RANGE)}")
    direction = np.asarray(direction, dtype=float)
    nrm = float(batch_seg_norm(nu, direction[None])[0])
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("direction must be normalized in the segment norm")
    horizon = T + nu.r0
    steps = grid_count(horizon, h, "horizon")
    cfg = SolverConfig(h=h, t_end=horizon)

    def columns(offset, count):
        dW = batch_increments(base_seed, offset, count, steps, m.dbar, h)

        def run(start):
            return terminal_f(m, nu, f, start, cfg, base_seed, count, dW=dW)

        fp = run(xi_vals + eps_fd * direction)
        fm = run(xi_vals - eps_fd * direction)
        return (fp - fm) / (2.0 * eps_fd), run(xi_vals)

    diff, f0 = map_columns(n, rng.ESTIMATOR_CHUNK, columns, workers)
    D, D_se = mean_stderr(diff)
    V = max(np.sum(f0 * f0) / n - (np.sum(f0) / n) ** 2, 0.0)
    # stderr of the variance via the fourth-moment-free normal approximation
    V_se = V * math.sqrt(2.0 / max(n - 1, 1))
    if V < 1e-12 and abs(D) > 1e-6:
        raise DegenerateVarianceError(
            f"variance {V:.3g} at numerical floor while the derivative {D:.3g} is not"
        )
    tcap = min(T, 1.0)
    ratio = D**2 * tcap / V if V > 0 else math.inf
    passed = None
    if C_hat is not None:
        slack = 3.0 * math.sqrt(
            (2.0 * D_se / max(abs(D), 1e-300)) ** 2 + (V_se / max(V, 1e-300)) ** 2
        )
        passed = bool(D**2 <= (C_hat / tcap) * V * (1.0 + slack))
    return GradientReport(
        D=float(D), D_stderr=float(D_se), V=float(V), V_stderr=float(V_se),
        ratio=float(ratio), C_hat=C_hat, passed=passed, eps_fd=eps_fd,
        setting={"T": T, "h": h, "n": n},
    )
