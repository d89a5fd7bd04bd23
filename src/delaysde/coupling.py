"""Coupling by change of measures for the transformed delay equation.

Two copies share one Brownian motion: X carries the target dynamics; Y gets
the drift of X plus a bridging pull (X - Y)/gamma.  In continuous time that
pull forces the states to meet by T.  The discrete bridge forces it on its
last step: every pair still open at T - h (neither met nor failed) takes
Y_T := X_T, and log R adds the log-ratio of Y's and X's Euler kernels at X_T
in place of the Girsanov increment, the exact density of that step.  After
the meeting time the states are clamped together, so the terminal segments
of every pair that did not fail agree exactly.  The density R that makes
Y's law the target law started from the second initial segment accumulates
the delay-mismatch drift over all of [0, T): histories keep differing for
up to r0 after the states meet, and that tail is what produces the
segment-norm term in the entropy cost.

Every pair of a batch starts from the same two segments, so their pull-backs
through Theta are computed once per run, by zvonkin.start_transformed.  X and
Y are stored whole and each side's pulled-back rows live in a ring of n0 + 2
rows, all four in measure.Rows buffers.  X moves by
zvonkin.transformed_step, the step of simulate_transformed.  Each step then
pulls X's new rows and the Y rows not yet met back through one
theta_inverse_ud call, which also returns u and grad u at each root; the
next step's coefficients read those instead of the table, and the delay
averages slide in O(1) per step for exponential and uniform measures, so a
step's cost does not grow with the delay window.  Y's drift, diffusion,
noise and pull-back are formed on steps before T only: from T on every row
that has not failed is met, and its Y row is its X row.

The diffusions come from transformed_coefficients with one entry per row;
for a constant Q in d = dbar = 1 that is the scalar (1 + u') q, so the
noise products and the shift solves of the density stay scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measure import DelayMeasure, grid_count
from .model import log_det_qqt, noise_product, solve_qqt
from .rng import path_increments
from .zvonkin import (
    TransformedModel,
    start_transformed,
    theta_inverse_ud,
    transformed_coefficients,
    transformed_step,
)

__all__ = [
    "CouplingConfig",
    "CouplingResult",
    "gamma",
    "meeting_radius",
    "run_coupling_batch",
    "entropy_cost",
    "fit_entropy_cost",
]

DELTA_SCALE = 1e-8


def meeting_radius(xi_t, eta_t) -> float:
    """delta = DELTA_SCALE * (1 + |xi(0) - eta(0)|), the distance at which
    states have met; a ValueError if not finite, as every pair would meet."""
    gap = np.asarray(xi_t, dtype=float)[-1] - np.asarray(eta_t, dtype=float)[-1]
    with np.errstate(over="ignore"):
        dist = float(np.linalg.norm(gap))
    if not math.isfinite(dist):
        raise ValueError(f"|xi(0) - eta(0)| = {dist} for the gap {gap.tolist()}: need a finite norm")
    return DELTA_SCALE * (1.0 + dist)


def gamma(t, T: float, K: float):
    """Bridging clock (1 - e^{(t-T)K^2})/K^2 on [0, T]; K = 0 gives T - t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > T + 1e-12):
        raise ValueError("gamma is defined on [0, T]")
    if K == 0.0:
        out = T - t
    else:
        out = (1.0 - np.exp((t - T) * K**2)) / K**2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CouplingConfig:
    T: float
    h: float
    K: float

    def __post_init__(self):
        if not (self.T > 0 and self.h > 0 and self.K >= 0):  # NaN fails each test
            raise ValueError("need T > 0, h > 0, K >= 0")
        grid_count(self.T, self.h, "T")
        # guards the interior midpoint steps: each scales X - Y by 1 - h/ghat
        # with ghat <= 1/K^2, below -1 once h K^2 > 2, so the gap would grow
        # until the last step closes it
        if self.h * self.K**2 >= 2.0:
            raise ValueError(
                f"h*K^2 = {self.h * self.K**2:g} >= 2 makes the coupled step unstable; "
                "lower K or h"
            )


@dataclass
class CouplingResult:
    tau: np.ndarray  # (n,) meeting time, at most T; nan for a pair that failed apart
    log_R: np.ndarray  # (n,)
    x_states: np.ndarray  # (n, N+1, d) on [-r0, T+r0], the paths view of a stored measure.Rows
    y_states: np.ndarray  # the same layout
    delta: float
    T: float
    h: float
    r0: float
    base_seed: int
    path_offset: int
    dW: np.ndarray = field(repr=False, default=None)  # (n, steps, dbar), laid out like PathBatch.dW
    failed: np.ndarray = None  # (n,) overflow in the bridging drift; frozen, not crashed

    @property
    def coupled(self) -> np.ndarray:
        return ~np.isnan(self.tau)

    @property
    def R(self) -> np.ndarray:
        return np.exp(self.log_R)

    def terminal_segments_equal(self) -> np.ndarray:
        n0 = grid_count(self.r0, self.h, "r0")
        diff = np.abs(self.x_states[:, -n0 - 1 :] - self.y_states[:, -n0 - 1 :])
        return diff.max(axis=(1, 2)) == 0.0


def _pull_back(sol, t: float, xn: np.ndarray, yn: np.ndarray, pull):
    """Theta^{-1}(t, .) and its (u, grad u) for every row of xn and for the
    rows pull (a mask, or slice(None) for all) of yn, from one
    theta_inverse_ud call on the stacked rows.  The inverse works row by
    row, so the bits are those of separate calls.  Returns
    (x_inv, ud_x, y_inv, ud_y), the last two on the pulled rows only."""
    n = len(xn)
    rows = yn[pull]
    inv, ud = theta_inverse_ud(sol, t, np.concatenate([xn, rows]) if len(rows) else xn)
    return inv[:n], ud[:, :n], inv[n:], ud[:, n:]


def run_coupling_batch(
    tm: TransformedModel,
    nu: DelayMeasure,
    xi_t: np.ndarray,
    eta_t: np.ndarray,
    cc: CouplingConfig,
    base_seed: int,
    n_paths: int,
    path_offset: int = 0,
    dW: np.ndarray | None = None,
) -> CouplingResult:
    """Integrate the coupled pair on [0, T + r0] from transformed segments
    xi_t, eta_t of shape (n0+1, d), shared by every pair.

    The bridging drift uses the midpoint value of gamma on each step before
    the last; states within delta = meeting_radius(xi_t, eta_t) are declared
    met and clamped.  The last bridged step, from T - h to T, closes every
    pair still open: Y_T := X_T, and log R adds log p_Y(X_T) - log p_X(X_T)
    for the Euler kernels N(y + h B_y, h Q_y Q_y*) of Y's target step and
    N(x + h B_x, h Q_x Q_x*) of X's, where the other rows add phi dW -
    h |phi|^2 / 2.  A row whose X, or whose open Y, overflows keeps its
    states from then on, as a failed row; every other row has met by T.
    """
    sol = tm.sol
    T, h, K = cc.T, cc.h, cc.K
    n0 = nu.n0(h)
    n_T = grid_count(T, h, "T")
    steps = n_T + n0
    n_rows = n0 + steps + 1
    # ud_x and ud_y hold (u, grad u) at X's and Y's current pull-backs
    x, xinv, ud_x, avg_x = start_transformed(tm, nu, xi_t, n_paths, n_rows, path_offset)
    y, yinv, ud_y, avg_y = start_transformed(tm, nu, eta_t, n_paths, n_rows, path_offset)
    delta = meeting_radius(xi_t, eta_t)
    dW = path_increments(dW, base_seed, path_offset, n_paths, steps, tm.base.dbar, h)
    log_r = np.zeros(n_paths)
    tau = np.full(n_paths, np.nan)
    failed = np.zeros(n_paths, dtype=bool)
    met = np.linalg.norm(x[n0] - y[n0], axis=1) <= delta
    tau[met] = 0.0
    y[n0][met] = x[n0][met]
    open_ = ~met  # rows that have neither met nor failed, updated in place
    for k in range(steps):
        t, r = k * h, n0 + k
        xs, ys = x[r], y[r]
        with np.errstate(over="ignore", invalid="ignore"):
            xn, Bx, Qx = transformed_step(tm, t, h, xs, xinv[r], ud_x, next(avg_x), dW[:, k])
        yn = xn  # from the last bridged step on, an open row's Y is its X
        if k < n_T:  # phi reads Y's drift and diffusion on every row
            By, Qy = transformed_coefficients(tm, t, ys, yinv[r], ud_y, next(avg_y))
            ghat = gamma(t + 0.5 * h, T, K)
            z = solve_qqt(Qx, xs - ys)  # (n, dbar): Q*(QQ*)^{-1}(X - Y)
            phi = solve_qqt(Qy, By - Bx) - z / ghat
            inc = np.einsum("nk,nk->n", phi, dW[:, k]) - 0.5 * h * np.sum(phi**2, axis=1)
            if k + 1 < n_T:
                with np.errstate(over="ignore", invalid="ignore"):
                    yn = ys + h * (Bx + noise_product(Qy, z) / ghat) + noise_product(Qy, dW[:, k])
            else:  # the open rows that X keeps finite close at X_T's density ratio
                c = np.flatnonzero(open_ & np.isfinite(xn).all(axis=1))
                ry = solve_qqt(Qy[c], xn[c] - ys[c] - h * By[c])
                rx = solve_qqt(Qx[c], xn[c] - xs[c] - h * Bx[c])
                quad = np.sum(rx**2, axis=1) - np.sum(ry**2, axis=1)
                inc[c] = quad / (2.0 * h) + 0.5 * (log_det_qqt(Qx[c]) - log_det_qqt(Qy[c]))
            log_r += inc
        if not (np.isfinite(xn).all() and np.isfinite(yn).all()):
            failed |= ~np.isfinite(xn).all(axis=1) | open_ & ~np.isfinite(yn).all(axis=1)
            open_ &= ~failed
        any_failed = failed.any()
        if any_failed:
            xn[failed] = xs[failed]
        x[r + 1] = xn
        if k < n_T:  # the meeting test of the open rows
            live = np.flatnonzero(open_)
            newly = live[np.linalg.norm(xn[live] - yn[live], axis=1) <= delta]
            tau[newly] = t + h
            open_[newly] = False
        y_next = y[r + 1]
        # a met row copies X, and from the last bridged step on so does every other
        y_next[...] = xn if yn is xn else np.where(open_[:, None], yn, xn)
        if any_failed:
            y_next[failed] = ys[failed]  # a failed row keeps its state
        if sol is None:
            continue
        if k + 1 < n_T:  # the next step reads Y's pull-back, a met row's its X row's
            pull = np.isnan(tau)
            if pull.all():  # plain copies while no row has met
                pull = slice(None)
            x_inv, ud_x, y_inv, ud_pulled = _pull_back(sol, t + h, xn, y_next, pull)
            yinv[r + 1] = x_inv
            yinv[r + 1][pull] = y_inv
            ud_y = ud_x.copy()
            ud_y[:, pull] = ud_pulled
        else:
            x_inv, ud_x = theta_inverse_ud(sol, t + h, xn)
        xinv[r + 1] = x_inv
    return CouplingResult(
        tau, log_r, x.paths, y.paths, delta, T, h, nu.r0, base_seed, path_offset, dW, failed
    )


@dataclass
class EntropyEstimate:
    value: float  # E_Q log R as E_P[R log R] / E_P[R]
    stderr: float
    unnormalized: float  # plain E_P[R log R]
    mean_R: float
    stderr_R: float
    ess: float
    n_paths: int
    warnings: list = field(default_factory=list)


def entropy_cost(log_R: np.ndarray) -> EntropyEstimate:
    """Relative-entropy cost of the coupling from the log-weights of one batch."""
    n = len(log_R)
    # a non-finite log R (a failed pair) gives NaN or inf statistics, silently
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.exp(log_R)
        rlr = r * log_R
        mean_r = float(r.mean())
        stderr_r = float(r.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        value = float(rlr.sum() / max(r.sum(), 1e-300))
        # delta-method stderr of the ratio estimator
        resid = rlr - value * r
        stderr = float(resid.std(ddof=1) / (max(mean_r, 1e-300) * math.sqrt(n))) if n > 1 else 0.0
        ess = float(r.sum() ** 2 / max((r**2).sum(), 1e-300))
    warnings = []
    if ess < 0.01 * n:
        warnings.append(f"degenerate coupling weights: ess={ess:.1f} of {n}")
    return EntropyEstimate(
        value=value,
        stderr=stderr,
        unnormalized=float(rlr.mean()),
        mean_R=mean_r,
        stderr_R=stderr_r,
        ess=ess,
        n_paths=n,
        warnings=warnings,
    )


@dataclass
class EntropyFit:
    c1: float  # coefficient of |xi(0) - eta(0)|^2 / T
    c2: float  # coefficient of ||xi - eta||^2
    rel_residual: float
    predictions: np.ndarray
    values: np.ndarray


def fit_entropy_cost(d0_sq_over_T, seg_sq, values) -> EntropyFit:
    """Least-squares fit of entropy costs to c1 |xi(0)-eta(0)|^2/T + c2 ||xi-eta||^2."""
    f1 = np.asarray(d0_sq_over_T, dtype=float)
    f2 = np.asarray(seg_sq, dtype=float)
    v = np.asarray(values, dtype=float)
    A = np.stack([f1, f2], axis=1)
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    pred = A @ coef
    rel = float(np.linalg.norm(pred - v) / max(np.linalg.norm(v), 1e-300))
    return EntropyFit(float(coef[0]), float(coef[1]), rel, pred, v)
