"""Mild-solution time stepping, with or without truncation.

Paths live on a uniform grid over [-r0, T_end].  The exponential-Euler step
uses the diagonal semigroup factors (E, J) so the drift-free case reproduces
the exact Ornstein-Uhlenbeck flow up to O(h^2) in the variance; the delay
drift is evaluated at the left-endpoint segment, through the segment
averages that measure.delay_averages streams, and a truncated run streams
its segment norms from |x|^2 with measure.streamed_seg_norms.  Everything
is vectorized over a batch of paths sharing one initial segment.

A trunc_level L cuts the coefficients off in the step: b by cutoff_psi(|x|/L),
Q read at x cutoff_psi(|x|/L), B by cutoff_psi(||x_t||/L).  A path ends at
its first window of norm >= L, and |x| is at most its window's norm, so after
step 0 every cut-off of a live row is exactly 1: they cost one norm a step.

A batch's states live in a measure.Rows buffer and its increments in a
time-major (steps, n, dbar) buffer, so each step reads and writes
contiguous rows; PathBatch exposes them as (n, n_slots, d) and (n, steps,
dbar) views.  A caller that reads the path keeps every row, n_slots = N+1;
the estimators, which read only the terminal segment and log R, keep a ring
of n0 + 2 rows (see simulate), and simulate forms log R of a target model in
the step with log_r_increment, which girsanov.log_density sums over a stored
batch.

A diffusion declared constant in d = dbar = 1 is read once per step, through
model.diffusion_at and model.noise_product.  While every path of a run
without truncation is alive, one reduction over the new row decides whether
the step can end a path at all; only a step that can takes the full
finiteness and radius check (see simulate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import (
    DelayMeasure, Rows, Segment, check_segment_shape, delay_averages, grid_count, streamed_seg_norms,
)
from .model import ModelSpec, _zero_B, diffusion_at, noise_product, semigroup_factors, solve_qqt
from .rng import path_increments

__all__ = [
    "SolverConfig",
    "PathBatch",
    "ExplosionBeforeHorizonError",
    "cutoff_psi",
    "log_r_increment",
    "simulate",
]

SCHEMES = ("exponential-euler", "euler-maruyama")
# A path whose state reaches this norm ends: its lifetime is recorded.
R_EXPLODE = 1e6
# A new row whose summed squares lie below this leaves every path alive: each
# path's norm is then below R_EXPLODE / 2, which no rounding of a norm lifts
# to R_EXPLODE.
_HEALTHY_SQ = (0.5 * R_EXPLODE) ** 2


@dataclass(frozen=True)
class SolverConfig:
    h: float
    t_end: float
    scheme: str = "exponential-euler"
    trunc_level: float = math.inf

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.h <= 0 or self.t_end <= 0:
            raise ValueError("h and t_end must be positive")
        if not self.trunc_level > 0:
            raise ValueError("truncation level must be positive")
        grid_count(self.t_end, self.h, "t_end")


class ExplosionBeforeHorizonError(RuntimeError):
    def __init__(self, fraction: float):
        super().__init__(f"{fraction:.2%} of paths hit their lifetime before the horizon")
        self.fraction = fraction

    def __reduce__(self):
        # rebuild from the fraction, not from the formatted message in args
        return type(self), (self.fraction,)


@dataclass
class PathBatch:
    h: float
    r0: float
    states: np.ndarray  # (n, n_slots, d): the last n_slots rows, a view of a time-major buffer
    dW: np.ndarray  # (n, steps, dbar), a view of a time-major buffer unless the caller passed dW
    base_seed: int
    path_offset: int
    lifetimes: np.ndarray  # (n,) nan = no truncation exit
    log_r: np.ndarray | None = None  # (n,) log R when simulate was given a log_r_model

    @property
    def t_min(self) -> float:
        return -self.r0

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    def check_horizon(self, t_end: float) -> None:
        """Raise ExplosionBeforeHorizonError when a path's lifetime ends by
        t_end: a dead path is frozen, so its terminal state means nothing."""
        frac = float(np.mean(self.lifetimes <= t_end))
        if frac > 0:
            raise ExplosionBeforeHorizonError(frac)

    def segment_values(self, t: float) -> np.ndarray:
        """Batched segment windows at grid time t, shape (n, n0+1, d); a batch
        that kept only its last rows holds only the windows inside them."""
        n0 = grid_count(self.r0, self.h, "r0")
        i = grid_count(t + self.r0, self.h, "t - t_min")
        n_rows = n0 + self.dW.shape[1] + 1
        first = n_rows - self.states.shape[1]  # the first row the batch holds
        if i < n0 or i >= n_rows:
            raise ValueError(f"t={t} not covered by the batch grid")
        if i - n0 < first:
            raise ValueError(f"t={t}: the batch kept only its last {self.states.shape[1]} rows")
        return self.states[:, i - n0 - first : i + 1 - first]

    def terminal_segments(self) -> np.ndarray:
        n0 = grid_count(self.r0, self.h, "r0")
        return self.states[:, -n0 - 1 :]


def cutoff_psi(r: np.ndarray) -> np.ndarray:
    """C^2 cutoff: 1 on [0,1], 0 on [2,inf), quintic blend in between."""
    r = np.asarray(r, dtype=float)
    u = np.clip(r - 1.0, 0.0, 1.0)
    return 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def _shift(m: ModelSpec, t: float, x: np.ndarray, avg: np.ndarray) -> np.ndarray:
    """psi = Q*(QQ*)^{-1}{b(t, x) + B(t, avg)} at states x and segment
    averages avg, with Q read by diffusion_at."""
    return solve_qqt(diffusion_at(m, t, x), m.b(t, x) + m.B(t, avg))


def log_r_increment(m, t, x, avg, dw, h) -> np.ndarray:
    """One step's term <psi, dW> - (h/2) |psi|^2 of log R, shape (n,), with
    psi the shift of model m at states x and averages avg and dw the step's
    increments (n, dbar)."""
    psi = _shift(m, t, x, avg)
    return np.einsum("nk,nk->n", psi, dw) - 0.5 * h * np.sum(psi**2, axis=1)


def simulate(
    m: ModelSpec,
    nu: DelayMeasure,
    xi: Segment,
    cfg: SolverConfig,
    base_seed: int,
    n_paths: int,
    path_offset: int = 0,
    dW: np.ndarray | None = None,
    keep_path: bool = True,
    log_r_model: ModelSpec | None = None,
) -> PathBatch:
    """Integrate a batch of paths; overflow and threshold exits become recorded lifetimes.

    The rows live in a measure.Rows buffer, whose paths view becomes
    batch.states.  keep_path stores every row, n_slots = n_rows = n0 +
    steps + 1; otherwise the buffer is a ring of n0 + 2 slots, the fewest
    the averages need (average k reads row k - 1 after row k + n0 is
    written), and the batch keeps the last n0 + 2 rows, its terminal
    segment among them.  A log_r_model has log R of its Girsanov density
    (see girsanov) accumulated in the step, at each state and average of
    the path, into batch.log_r.  Neither option changes a bit of the path.

    The diffusion is read by model.diffusion_at, once per step for a
    constant Q in d = dbar = 1.  Each step's health is checked by one reduction while every
    path is alive and no trunc_level is set: when the summed squares of the
    new row lie below _HEALTHY_SQ, the row is finite (a NaN or inf makes the
    sum NaN or inf, which fails the comparison) and every path's norm,
    computed by np.linalg.norm or not, is below R_EXPLODE.  The full check
    would then keep every new state, write it for every path and end none,
    so the row is written as it is.  Any other step, and every step once a
    path has died, takes the full check: states that are not finite stay
    frozen, and a path whose norm (or, with a trunc_level, segment norm)
    reaches its bound ends with its lifetime recorded.
    """
    n0 = nu.n0(cfg.h)
    steps = grid_count(cfg.t_end, cfg.h, "t_end")
    d, dbar = m.d, m.dbar
    check_segment_shape(xi.values, n0, d)
    dW = path_increments(dW, base_seed, path_offset, n_paths, steps, dbar, cfg.h)
    n_rows = n0 + steps + 1
    states = Rows(n_paths, n_rows, d, n_slots=None if keep_path else n0 + 2, first=xi.values)
    lifetimes = np.full(n_paths, np.nan)
    alive = np.ones(n_paths, dtype=bool)
    all_alive = True
    check_seg = math.isfinite(cfg.trunc_level)
    if check_seg:
        # the window norms cut B off and end paths; their |x|^2 rows have a
        # spare last row, so that the check after the last step has a
        # window, and live in a ring of n0 + 2 slots
        sq = Rows(n_paths, n_rows + 1, 1, n_slots=n0 + 2, first=np.sum(xi.values**2, axis=1, keepdims=True))
        seg_norms = streamed_seg_norms(nu, sq, path_offset)
        seg_n = next(seg_norms)
        inv_level = 1.0 / cfg.trunc_level
    use_exp = cfg.scheme == "exponential-euler"
    if use_exp:
        E, J = semigroup_factors(m.A, cfg.h)
    h = cfg.h
    zero_B = m.B is _zero_B
    B_zero = np.zeros((n_paths, d)) if zero_B else None
    log_r = None if log_r_model is None else np.zeros(n_paths)
    # a path that reads no window and accumulates no log R never forms the averages
    averages = None if zero_B and log_r is None else delay_averages(nu, states, path_offset)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t = k * h
            x = states[n0 + k]
            avg = None if averages is None else next(averages)
            bv = m.b(t, x)
            Bv = B_zero if zero_B else m.B(t, avg)
            x_Q = x
            if check_seg:
                cut = cutoff_psi(inv_level * np.linalg.norm(x, axis=-1))[:, None]
                bv, x_Q = bv * cut, x * cut
                Bv = Bv * cutoff_psi(inv_level * seg_n)[:, None]
            if log_r is not None:
                log_r += log_r_increment(log_r_model, t, x, avg, dW[:, k], h)
            noise = noise_product(diffusion_at(m, t, x_Q), dW[:, k])
            if use_exp:
                xn = E * x + J * (bv + Bv) + E * noise
            else:
                xn = x + h * (m.A.apply(x) + bv + Bv) + noise
            if all_alive and not check_seg:
                flat = xn.ravel()
                if np.dot(flat, flat) < _HEALTHY_SQ:
                    states[n0 + k + 1] = xn
                    continue
            finite = np.all(np.isfinite(xn), axis=1)
            xn = np.where(finite[:, None], xn, x)
            xn = np.where(alive[:, None], xn, x)
            states[n0 + k + 1] = xn
            exceeded = np.linalg.norm(xn, axis=1) >= R_EXPLODE
            if check_seg:
                sq[n0 + k + 1] = np.sum(xn**2, axis=1, keepdims=True)
                seg_n = next(seg_norms)
                exceeded |= seg_n >= cfg.trunc_level
            newly = alive & (~finite | exceeded)
            if np.any(newly):
                lifetimes[newly] = t + h
                alive &= ~newly
                all_alive = False
    return PathBatch(cfg.h, nu.r0, states.paths, dW, base_seed, path_offset, lifetimes, log_r)
