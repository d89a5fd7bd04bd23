"""The Bihari a-priori bound: the non-explosion check of a path's drift part.

apriori_check reports over the per-path columns alpha(T) and the running
square supremum of the drift part, joined in path order by rng.map_columns
over STORED_ROW_CHUNK chunks of paths, which are stored whole, on `workers`
processes.  The report inverts Psi_T on one grid that covers the targets of
every path, so no bound depends on the chunk size or the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng
from .measure import Rows, grid_count, streamed_seg_norms
from .model import diffusion_at, noise_product, semigroup_factors
from .solver import simulate

__all__ = [
    "BoundExceedsCapError", "AprioriReport", "bihari_bound", "psi_inverse", "check_kappa",
    "apriori_check",
]


class BoundExceedsCapError(ValueError):
    """Psi_T(s_cap) < alpha + T: the caller must widen the quadrature cap."""


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
    Phi_T: Callable[[float], float], K1: float, K2: float, alpha: float, T: float,
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
            raise BoundExceedsCapError(f"Psi_T({s_max:g}) < alpha + T = {target:g}; widen the cap")
    return float(brentq(lambda s: psi(s) - target, 1.0, cap, xtol=1e-10, rtol=1e-12))


def psi_inverse(Phi_T: Callable, K1: float, K2: float, targets: np.ndarray) -> np.ndarray:
    """Psi_T^{-1} at each of targets (alpha + T per path), the bihari_bound of
    every path from one shared grid: Psi_T by the trapezoid rule on a log
    grid of s from 1, widened until it covers the largest target, then
    inverted by monotone interpolation.  Phi_T takes arrays."""
    decades = 14.0
    while True:
        svals = np.concatenate(([1.0], np.logspace(0.0, decades, int(300 * decades) + 1)[1:]))
        integrand = 1.0 / (2.0 * np.asarray(Phi_T(K1 + K2 * svals), dtype=float))
        psi = np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(svals))
        psi = np.concatenate(([0.0], psi))
        if targets.max() <= psi[-1]:
            break
        decades *= 2.0
        if decades > 300.0:
            raise BoundExceedsCapError("Psi grid cap too small for the sampled alpha values")
    return np.interp(targets, psi, svals)


def check_kappa(nu, T: float) -> None:
    """ValueError unless the shift-domination constant kappa(T) of nu is
    finite: the bound's K1 = kappa(T) ||xi||^2 is infinite otherwise."""
    kap = nu.kappa(T)
    if not np.isfinite(kap):
        raise ValueError(
            f"kappa(T={T:g}) = {kap:g}: the measure's shift-domination constant is not finite "
            "(shifted mass lands on an empty cell), so the Bihari bound's K1 is not either"
        )


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


def apriori_check(m, nu, xi, cfg, T, n_paths, base_seed, workers=1) -> AprioriReport:
    """Check sup_{t<=T} |Y(t)|^2 <= Psi_T^{-1}(alpha(T)+T) path by path on
    n_paths paths simulated to cfg.t_end >= T, taken in STORED_ROW_CHUNK
    chunks on `workers` processes; an infinite kappa(T) is a ValueError
    before any path.

    Each path gives alpha(T) = |X(0)|^2 + 2 int_0^T h_T(||Xbar_s||) ds, by
    the left-endpoint rule, and sup_{t<=T} |Y(t)|^2 for Y = X - Xbar.  Xbar,
    the stochastic convolution, is rebuilt with the scheme's own recursion,
    so the drift-only part is exact in the scheme arithmetic, and vanishes on
    [-r0, 0]."""
    check_kappa(nu, T)
    if m.bihari is None:
        raise ValueError(f"model {m.name!r} declares no (Phi, h) growth data")
    h, n0 = cfg.h, nu.n0(cfg.h)
    steps = grid_count(T, h, "T")
    if steps > grid_count(cfg.t_end, h, "t_end"):
        raise ValueError(f"T={T} exceeds the horizon of the path batch")
    use_exp = cfg.scheme == "exponential-euler"
    if use_exp:
        E, _ = semigroup_factors(m.A, h)

    def columns(start, count):
        batch = simulate(m, nu, xi, cfg, base_seed, count, path_offset=start)
        states, dW = batch.states, batch.dW
        # |Xbar|^2 rows in a ring of n0 + 2, the fewest the norms read; 0 on [-r0, 0]
        sq = Rows(count, n0 + steps + 1, 1, n_slots=n0 + 2, first=np.zeros((n0 + 1, 1)))
        norms = streamed_seg_norms(nu, sq, start)
        xbar = np.zeros((count, m.d))
        alpha = np.sum(states[:, n0] ** 2, axis=1)
        sup_sq = alpha.copy()
        for k in range(steps):
            idx = n0 + k
            alpha += 2.0 * h * np.asarray(m.bihari.h(T, next(norms)), dtype=float)
            noise = noise_product(diffusion_at(m, k * h, states[:, idx]), dW[:, k])
            if use_exp:
                xbar = E * xbar + E * noise
            else:
                xbar = xbar + h * m.A.apply(xbar) + noise
            sq[idx + 1] = np.sum(xbar**2, axis=1, keepdims=True)
            np.maximum(sup_sq, np.sum((states[:, idx + 1] - xbar) ** 2, axis=1), out=sup_sq)
        return alpha, sup_sq

    alpha, sup_sq = rng.map_columns(n_paths, rng.STORED_ROW_CHUNK, columns, workers)
    w = nu.weights
    xi_norm_sq = float(w @ np.sum(xi.values[:-1] ** 2, axis=1) + np.sum(xi.values[-1] ** 2))
    K1 = nu.kappa(T) * xi_norm_sq
    K2 = 1.0 + nu.total_mass(window=T)
    Phi = m.bihari.Phi
    _check_divergence(lambda s: float(Phi(T, s)), K1, K2)
    bounds = psi_inverse(lambda s: Phi(T, s), K1, K2, alpha + T)
    ok = sup_sq <= bounds * (1.0 + 1e-9)
    return AprioriReport(
        pass_fraction=float(np.mean(ok)), n_paths=len(alpha), K1=K1, K2=K2,
        alpha_mean=float(alpha.mean()),
        worst_margin=float(np.max(sup_sq / np.maximum(bounds, 1e-300))),
        bounds=bounds, sup_sq=sup_sq,
    )
