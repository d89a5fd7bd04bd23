"""Mild-solution time stepping, coefficient truncation and the Bihari a-priori bound.

Paths live on a uniform grid over [-r0, T_end].  The exponential-Euler step
uses the diagonal semigroup factors (E, J) so the drift-free case reproduces
the exact Ornstein-Uhlenbeck flow up to O(h^2) in the variance; the delay
drift is evaluated at the left-endpoint segment, through the segment
averages that measure.delay_averages streams, as are the segment norms of a
truncated run and of apriori_check's Xbar, from |x|^2.  Everything is
vectorized over a batch of paths sharing one initial segment.

A batch is stored time-major: states and increments live in (N+1, n, d) and
(steps, n, dbar) buffers, so each step reads and writes contiguous rows, and
PathBatch exposes them as the transposed (n, N+1, d) and (n, steps, dbar)
views.

A diffusion declared constant in d = dbar = 1 is read once per step, through
model.diffusion_at and model.noise_product.  While every path of a run
without truncation is alive, one reduction over the new row decides whether
the step can end a path at all; only a step that can takes the full
finiteness and radius check (see simulate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measure import DelayMeasure, Segment, delay_averages, grid_count
from .model import ModelSpec, _zero_B, diffusion_at, noise_product, semigroup_factors
from .rng import path_increments

__all__ = [
    "SolverConfig",
    "PathBatch",
    "ExplosionBeforeHorizonError",
    "BoundExceedsCapError",
    "cutoff_psi",
    "truncate_coefficients",
    "simulate",
    "bihari_bound",
    "apriori_check",
]

SCHEMES = ("exponential-euler", "euler-maruyama")
# A path whose state reaches this norm ends: its lifetime is recorded.
R_EXPLODE = 1e6
# A new row whose summed squares lie below this leaves every path alive: each
# path's norm is then below R_EXPLODE / 2, which no rounding of a norm lifts
# to R_EXPLODE.
_HEALTHY_SQ = (0.5 * R_EXPLODE) ** 2


class BoundExceedsCapError(ValueError):
    """Psi_T(s_cap) < alpha + T: the caller must widen the quadrature cap."""


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
    states: np.ndarray  # (n, N+1, d), a view of a time-major (N+1, n, d) buffer
    dW: np.ndarray  # (n, steps, dbar), a view of a time-major buffer unless the caller passed dW
    base_seed: int
    path_offset: int
    lifetimes: np.ndarray  # (n,) nan = no truncation exit

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
        """Batched segment windows at grid time t, shape (n, n0+1, d)."""
        n0 = grid_count(self.r0, self.h, "r0")
        i = grid_count(t + self.r0, self.h, "t - t_min")
        if i < n0 or i >= self.states.shape[1]:
            raise ValueError(f"t={t} not covered by the batch grid")
        return self.states[:, i - n0 : i + 1]

    def terminal_segments(self) -> np.ndarray:
        n0 = grid_count(self.r0, self.h, "r0")
        return self.states[:, -n0 - 1 :]


def cutoff_psi(r: np.ndarray) -> np.ndarray:
    """C^2 cutoff: 1 on [0,1], 0 on [2,inf), quintic blend in between."""
    r = np.asarray(r, dtype=float)
    u = np.clip(r - 1.0, 0.0, 1.0)
    return 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def truncate_coefficients(m: ModelSpec, level: float) -> ModelSpec:
    """b and Q cut off outside radius `level`; they coincide with the originals inside.

    B is cut off by the segment norm, which B(t, avg) does not see: simulate
    multiplies it by cutoff_psi(||x_t|| / level), from the norms of its exit
    check.  The returned spec keeps m.B.
    """
    if not level > 0:
        raise ValueError("truncation level must be positive")
    if not math.isfinite(level):
        return m
    inv = 1.0 / level

    def b_m(t, x, _b=m.b):
        fac = cutoff_psi(inv * np.linalg.norm(x, axis=-1))
        return _b(t, x) * fac[..., None]

    def Q_m(t, x, _Q=m.Q):
        fac = cutoff_psi(inv * np.linalg.norm(x, axis=-1))
        return _Q(t, x * fac[..., None])

    return ModelSpec(
        name=f"{m.name}[trunc={level:g}]", d=m.d, dbar=m.dbar, A=m.A,
        b=b_m, B=m.B, Q=Q_m, phi=m.phi, b_sup=min(m.b_sup, np.inf),
        B_lip_sq=m.B_lip_sq, Q_bounds=m.Q_bounds, bihari=m.bihari, params=m.params,
    )


def _streamed_norm(avg_sq: np.ndarray, last_sq: np.ndarray) -> np.ndarray:
    """sqrt(nu(|x|^2) + |x(0)|^2), clamping a streamed nu(|x|^2) rounded below 0."""
    return np.sqrt(np.maximum(avg_sq[:, 0], 0.0) + last_sq)


def simulate(
    m: ModelSpec,
    nu: DelayMeasure,
    xi: Segment,
    cfg: SolverConfig,
    base_seed: int,
    n_paths: int,
    path_offset: int = 0,
    dW: np.ndarray | None = None,
) -> PathBatch:
    """Integrate a batch of paths; overflow and threshold exits become recorded lifetimes.

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
    if xi.values.shape[0] != n0 + 1:
        raise ValueError("initial segment grid does not match solver grid")
    d, dbar = m.d, m.dbar
    m_eff = truncate_coefficients(m, cfg.trunc_level)
    dW = path_increments(dW, base_seed, path_offset, n_paths, steps, dbar, cfg.h)
    states = np.empty((n0 + steps + 1, n_paths, d)).transpose(1, 0, 2)
    states[:, : n0 + 1] = xi.values
    lifetimes = np.full(n_paths, np.nan)
    alive = np.ones(n_paths, dtype=bool)
    all_alive = True
    check_seg = math.isfinite(cfg.trunc_level)
    if check_seg:
        # the window norms cut B off and end paths; their |x|^2 rows have a
        # spare last row, so that the check after the last step has a window
        sq = np.zeros((n0 + steps + 2, n_paths, 1)).transpose(1, 0, 2)
        sq[:, : n0 + 1, 0] = np.sum(xi.values**2, axis=1)
        sq_averages = delay_averages(nu, sq, path_offset)
        seg_n = _streamed_norm(next(sq_averages), sq[:, n0, 0])
        inv_level = 1.0 / cfg.trunc_level
    use_exp = cfg.scheme == "exponential-euler"
    if use_exp:
        E, J = semigroup_factors(m.A, cfg.h)
    h = cfg.h
    if m.B is _zero_B:  # reads no window, so the averages are never formed
        averages, B_zero = None, np.zeros((n_paths, d))
    else:
        averages = delay_averages(nu, states, path_offset)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t = k * h
            idx = n0 + k
            x = states[:, idx]
            bv = m_eff.b(t, x)
            Bv = B_zero if averages is None else m_eff.B(t, next(averages))
            if check_seg:
                Bv = Bv * cutoff_psi(inv_level * seg_n)[:, None]
            noise = noise_product(diffusion_at(m_eff, t, x), dW[:, k])
            if use_exp:
                xn = E * x + J * (bv + Bv) + E * noise
            else:
                xn = x + h * (m.A.apply(x) + bv + Bv) + noise
            if all_alive and not check_seg:
                flat = xn.ravel()
                if np.dot(flat, flat) < _HEALTHY_SQ:
                    states[:, idx + 1] = xn
                    continue
            finite = np.all(np.isfinite(xn), axis=1)
            xn = np.where(finite[:, None], xn, x)
            states[:, idx + 1] = np.where(alive[:, None], xn, x)
            exceeded = np.linalg.norm(states[:, idx + 1], axis=1) >= R_EXPLODE
            if check_seg:
                sq[:, idx + 1, 0] = np.sum(states[:, idx + 1] ** 2, axis=1)
                seg_n = _streamed_norm(next(sq_averages), sq[:, idx + 1, 0])
                exceeded |= seg_n >= cfg.trunc_level
            newly = alive & (~finite | exceeded)
            if np.any(newly):
                lifetimes[newly] = t + h
                alive &= ~newly
                all_alive = False
    return PathBatch(cfg.h, nu.r0, states, dW, base_seed, path_offset, lifetimes)


# ---------------------------------------------------------------------------
# Bihari non-explosion bound

def _check_divergence(Phi_T: Callable, K1: float, K2: float) -> None:
    """Heuristic check that the inverse-Phi integral diverges on [1, 1e8]."""
    from scipy.integrate import quad

    blocks = []
    for k in range(8):
        lo, hi = 10.0**k, 10.0 ** (k + 1)
        val, _ = quad(lambda s: 1.0 / (2.0 * float(Phi_T(K1 + K2 * s))), lo, hi, limit=200)
        blocks.append(val)
    ratios = [blocks[i + 1] / max(blocks[i], 1e-300) for i in range(len(blocks) - 1)]
    if all(r < 0.8 for r in ratios):
        raise ValueError(
            "Phi_T grows too fast: the Bihari integral appears convergent "
            f"(decade blocks {blocks})"
        )


def bihari_bound(
    Phi_T: Callable[[float], float],
    K1: float,
    K2: float,
    alpha: float,
    T: float,
    s_max: float = 1e12,
) -> float:
    """Psi_T^{-1}(alpha + T) with Psi_T(s) = int_1^s dr / (2 Phi_T(K1 + K2 r)).

    Upper-bounds the running square supremum of the drift part of the path.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    if K1 < 0 or K2 < 0:
        raise ValueError("K1 and K2 must be non-negative")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    _check_divergence(Phi_T, K1, K2)
    target = alpha + T

    def psi(s: float) -> float:
        val, _ = quad(lambda r: 1.0 / (2.0 * float(Phi_T(K1 + K2 * r))), 1.0, s, limit=200)
        return val

    cap = 10.0
    while psi(cap) < target:
        cap *= 10.0
        if cap > s_max:
            raise BoundExceedsCapError(
                f"Psi_T({s_max:g}) < alpha + T = {target:g}; widen the cap"
            )
    return float(brentq(lambda s: psi(s) - target, 1.0, cap, xtol=1e-10, rtol=1e-12))


@dataclass
class AprioriReport:
    pass_fraction: float
    n_paths: int
    K1: float
    K2: float
    alpha_mean: float
    worst_margin: float  # max over paths of H / bound
    bounds: np.ndarray = field(repr=False, default=None)
    sup_sq: np.ndarray = field(repr=False, default=None)

    @property
    def passed(self) -> bool:
        return self.pass_fraction >= 0.999


def apriori_check(
    m: ModelSpec,
    nu: DelayMeasure,
    xi: Segment,
    cfg: SolverConfig,
    T: float,
    n_paths: int,
    base_seed: int,
    batch: PathBatch | None = None,
) -> AprioriReport:
    """Check sup_{t<=T} |Y(t)|^2 <= Psi_T^{-1}(alpha(T)+T) path by path.

    Y = X - Xbar where Xbar is the stochastic convolution, reconstructed with
    the scheme's own recursion so the drift-only part is exact in the scheme
    arithmetic; Xbar vanishes on [-r0, 0].
    """
    if m.bihari is None:
        raise ValueError(f"model {m.name!r} declares no (Phi, h) growth data")
    if batch is None:
        batch = simulate(m, nu, xi, cfg, base_seed, n_paths)
    n0 = nu.n0(cfg.h)
    steps = grid_count(T, cfg.h, "T")
    if n0 + steps >= batch.states.shape[1]:
        raise ValueError(f"T={T} exceeds the horizon of the path batch")
    h = cfg.h
    n = batch.n_paths
    d = m.d
    xbar = np.zeros((n0 + steps + 1, n, d)).transpose(1, 0, 2)
    use_exp = cfg.scheme == "exponential-euler"
    if use_exp:
        E, _ = semigroup_factors(m.A, h)
    for k in range(steps):
        idx = n0 + k
        x = batch.states[:, idx]
        noise = noise_product(diffusion_at(m, k * h, x), batch.dW[:, k])
        if use_exp:
            xbar[:, idx + 1] = E * xbar[:, idx] + E * noise
        else:
            xbar[:, idx + 1] = xbar[:, idx] + h * m.A.apply(xbar[:, idx]) + noise
    # alpha(T) = |X(0)|^2 + 2 int_0^T h_T(||Xbar_s||) ds, left-endpoint rule,
    # with the segment norms of Xbar streamed from its |x|^2 rows
    sq = np.sum(xbar**2, axis=2, keepdims=True)  # time-major, like xbar
    averages = delay_averages(nu, sq, batch.path_offset)
    w = nu.weights
    hT = m.bihari.h
    alpha = np.sum(batch.states[:, n0] ** 2, axis=1).astype(float)
    for k in range(steps):
        norms = _streamed_norm(next(averages), sq[:, k + n0, 0])
        alpha += 2.0 * h * np.asarray(hT(T, norms), dtype=float)
    y = batch.states[:, n0 : n0 + steps + 1] - xbar[:, n0:]
    sup_sq = np.max(np.sum(y**2, axis=2), axis=1)
    xi_norm_sq = float(w @ np.sum(xi.values[:-1] ** 2, axis=1) + np.sum(xi.values[-1] ** 2))
    K1 = nu.kappa(T) * xi_norm_sq
    K2 = 1.0 + nu.total_mass(window=T)
    Phi = m.bihari.Phi
    _check_divergence(lambda s: float(Phi(T, s)), K1, K2)
    # shared Psi inverse on a log grid; per-path bound by monotone interpolation,
    # widening the grid until it covers the largest sampled alpha
    targets = alpha + T
    decades = 14.0
    while True:
        svals = np.concatenate(([1.0], np.logspace(0.0, decades, int(300 * decades) + 1)[1:]))
        integrand = 1.0 / (2.0 * np.asarray(Phi(T, K1 + K2 * svals), dtype=float))
        psi = np.concatenate(
            ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(svals)))
        )
        if targets.max() <= psi[-1]:
            break
        decades *= 2.0
        if decades > 300.0:
            raise BoundExceedsCapError("Psi grid cap too small for the sampled alpha values")
    bounds = np.interp(targets, psi, svals)
    ok = sup_sq <= bounds * (1.0 + 1e-9)
    return AprioriReport(
        pass_fraction=float(np.mean(ok)),
        n_paths=n,
        K1=K1,
        K2=K2,
        alpha_mean=float(alpha.mean()),
        worst_margin=float(np.max(sup_sq / np.maximum(bounds, 1e-300))),
        bounds=bounds,
        sup_sq=sup_sq,
    )
