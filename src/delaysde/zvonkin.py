"""Drift-regularizing transform: backward-sweep solve of u, Theta = id + u,
and the transformed dynamics with the rough drift removed.

u solves u(s,x) = int_s^T e^{-lam(t-s)} P0_{s,t}{(grad u) b + b}(t,x) dt where
P0 is the Ornstein-Uhlenbeck semigroup of the linear part with constant
diffusion.  Large lam makes u and its derivatives small; once the gradient of
u stays below 1/2 the map Theta(t, x) = x + u(t, x) is a bi-Lipschitz change
of variables, and in the new coordinates the drift is Lipschitz.

Tables live on a padded tensor grid; the semigroup is Gauss-Hermite quadrature
with linear interpolation of the integrand, applied axis by axis as two
sparse operators per time offset, A @ v + B @ (v[1:] - v[:-1]) (see
_ou_operators).  The backward sweep factors its level operator once for a
time-homogeneous b.  Queries beyond the padded grid use constant extension
during the solve (the drifts of interest saturate); public evaluation
outside the grid raises CoverageError.

Between the nodes u and grad u are multilinear in x and linear in t.  In
every d one gather of the 2^d cell corners per time level, on a stacked
(u, grad u) table, serves both; the corners are blended in time first and
then once along each axis.  In d=1 Theta(t, .) is piecewise linear with
nodes g + u(t, g), so its exact root is found by interpolating back, with no
iteration: the table is blended to time t once per call, and each row's
cell among the nodes comes from a table of uniform bins, in as many passes
as the fullest bin holds nodes, or from a binary search when the batch has
fewer rows than nodes or a bin holds more nodes than a search takes steps.
The root has the bits of np.interp.  In d>1 Theta^{-1} is the fixed point x = y - u(t, x), iterated
on each row until that row's own update is below tolerance, so a row's root
does not depend on the batch it is in.  theta_inverse_ud returns the root
together with the stacked (u, grad u) at it, from one lookup at the root;
the runners keep that next to each pulled-back row, so a step's
transformed_coefficients reads no table.  For a base diffusion declared
constant in d = dbar = 1, transformed_coefficients reads Q once per step and
the transformed diffusion is the scalar (1 + u') q of each row.

The transformed equation has two runners, simulate_transformed and the
coupled pair of coupling.run_coupling_batch.  Both open their batches with
start_transformed, which pulls the shared initial segment back once into a
ring of n0 + 2 pulled-back rows (a measure.Rows, like the states), and both
step X with transformed_step, so X of a coupled pair is simulate_transformed
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_hermitenorm

from .measure import DelayMeasure, Rows, check_segment_shape, delay_averages, grid_count
from .model import ModelSpec, diffusion_at, noise_product
from .rng import path_increments

__all__ = [
    "CoverageError",
    "DivergenceError",
    "InverseConvergenceError",
    "ZvonkinSolution",
    "TransformedModel",
    "picard_u",
    "solve_u",
    "theta",
    "theta_inverse",
    "theta_inverse_ud",
    "transformed_model",
    "transformed_coefficients",
    "needs_transform",
    "simulate_transformed",
    "verify_decay",
]


class CoverageError(ValueError):
    """Evaluation point outside the tabulated grid."""


class DivergenceError(RuntimeError):
    """The u solve is unusable: sup |grad u| >= 1, or Picard does not contract."""


class InverseConvergenceError(RuntimeError):
    """Theta^{-1} is not defined by the table: in d=1 Theta(t, .) is not
    strictly increasing on the grid; in d>1 the fixed point of some row did
    not reach _INVERSE_TOL in _INVERSE_MAX_ITER iterations."""


def _hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    z, w = roots_hermitenorm(order)
    return z, w / w.sum()


def _ou_sd(rates: np.ndarray, sigma: float, dt: float) -> np.ndarray:
    """Per-coordinate stationary-part standard deviation of the OU bridge over dt."""
    with np.errstate(invalid="ignore"):
        var = np.where(
            rates > 0,
            sigma**2 * (1.0 - np.exp(-2.0 * rates * dt)) / np.where(rates > 0, 2.0 * rates, 1.0),
            sigma**2 * dt,
        )
    return np.sqrt(var)


def _uniform_cells(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.clip(np.searchsorted(x, q) - 1, 0, len(x) - 2) on the uniform grid
    x for q in [x[0], x[-1]]: the cell from q's offset, nudged once each way
    to the last node below q, which rounding can miss by one."""
    last = len(x) - 2
    idx = np.floor((q - x[0]) * (last + 1) / (x[-1] - x[0])).astype(np.intp)
    np.clip(idx, 0, last, out=idx)
    idx -= x[idx] >= q
    idx += x[idx + 1] < q
    return np.clip(idx, 0, last, out=idx)


def _ou_operators(grids: list, rates: np.ndarray, sigma: float, z: np.ndarray, w: np.ndarray,
                  dt: float, n_offsets: int):
    """For each offset k = 1..n_offsets, per grid axis, the pair (A, B) of CSR
    operators of P0 over k steps of dt along that axis: linear interpolation
    at the Gauss-Hermite nodes E x + sd z with weights w, clipped to the
    uniform grid, is A @ v + B @ (v[1:] - v[:-1]).  Row j of A puts the
    weight w_q on the cell of node (j, q) and row j of B puts w_q times the
    node's offset in that cell there, so A and B share one int32 index
    array; A's data and the indptr, which do not depend on k, are shared by
    every offset.  An offset thus costs 12 bytes per node and axis."""
    from scipy import sparse

    shared = [
        (np.tile(w, len(x)), np.arange(0, len(x) * len(w) + 1, len(w), dtype=np.int32)) for x in grids
    ]
    ops = []
    for k in range(1, n_offsets + 1):
        axes = []
        for x, rate, sd, (wt, indptr) in zip(grids, rates, _ou_sd(rates, sigma, k * dt), shared):
            q = np.clip(math.exp(-rate * k * dt) * x[:, None] + sd * z[None, :], x[0], x[-1]).ravel()
            idx = _uniform_cells(x, q)
            frac = (q - x[idx]) / (x[idx + 1] - x[idx])
            cells, n = idx.astype(np.int32), len(x)
            axes.append((
                sparse.csr_matrix((wt, cells, indptr), shape=(n, n)),
                sparse.csr_matrix((wt * frac, cells, indptr), shape=(n, n - 1)),
            ))
        ops.append(axes)
    return ops


def _apply_ou(vals: np.ndarray, axes: list) -> np.ndarray:
    """P0 on the grid one axis at a time, exact because linear interpolation on
    a tensor grid and the tensor Gauss-Hermite weights both factor by axis:
    along axis a, with that axis's (A, B) of _ou_operators, A @ v + B @ (v[1:]
    - v[:-1]) on the grid values, every other axis flattened into columns."""
    for a, (A, B) in enumerate(axes):
        v = vals.swapaxes(0, a)
        cols = v.reshape(len(v), -1)
        out = A @ cols
        out += B @ (cols[1:] - cols[:-1])
        vals = out.reshape(v.shape).swapaxes(0, a)
    return vals


@dataclass
class ZvonkinSolution:
    """Tabulated u on [0, T] x grid, with its gradient and, from picard_u,
    the Picard contraction ratios (empty from solve_u)."""

    lam: float
    T: float
    rates: np.ndarray
    sigma: float
    s_grid: np.ndarray
    grids: list
    u_tab: np.ndarray  # (n_t, *shape, d)
    du_tab: np.ndarray  # (n_t, *shape, d, d) du[..., c, k] = d u_c / d x_k
    ratios: list = field(default_factory=list)
    # (n_t, d + d*d, n_1 + 1, ..., n_d + 1) table of u and grad u, each axis
    # padded by repeating its last node, and per axis the grid with +inf
    # appended, so the right edge is a zero-slope cell; u_tab and du_tab
    # become views into it, so it costs no extra memory
    _ud: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _gx: list = field(default=None, init=False, repr=False, compare=False)
    # flat offsets of a cell's 2^d corners within one padded time level
    _corners: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        d, n_t = self.d, len(self.u_tab)
        du = self.du_tab.reshape(*self.u_tab.shape[:-1], d * d)
        ud = np.moveaxis(np.concatenate([self.u_tab, du], axis=-1), -1, 1)
        self._ud = np.pad(ud, [(0, 0), (0, 0)] + [(0, 1)] * d, mode="edge")
        self._gx = [np.append(g, np.inf) for g in self.grids]
        nodes = (..., *(slice(-1),) * d)  # drop the padding on every axis
        self.u_tab = np.moveaxis(self._ud[:, :d][nodes], 1, -1)
        du = self._ud[:, d:].reshape(n_t, d, d, *self._ud.shape[2:])
        self.du_tab = np.moveaxis(du[nodes], (1, 2), (-2, -1))
        corners = np.indices((2,) * d).reshape(d, -1)
        self._corners = np.ravel_multi_index(corners, self._ud.shape[2:])

    @property
    def d(self) -> int:
        return len(self.grids)

    @property
    def u_sup(self) -> float:
        return float(np.abs(self.u_tab).max())

    @property
    def du_sup(self) -> float:
        return float(np.abs(self.du_tab).max())

    @property
    def d2u_sup(self) -> float:
        worst = 0.0
        for k in range(self.d):
            g = np.gradient(self.du_tab, self.grids[k], axis=1 + k)
            worst = max(worst, float(np.abs(g).max()))
        return worst

    def _check_cover(self, x: np.ndarray) -> None:
        for k in range(self.d):
            lo, hi = x[:, k].min(), x[:, k].max()
            if not (lo >= self.grids[k][0] and hi <= self.grids[k][-1]):  # NaN fails too
                raise CoverageError(
                    f"query outside tabulated grid along axis {k}: "
                    f"[{lo:.3g}, {hi:.3g}] vs "
                    f"[{self.grids[k][0]:.3g}, {self.grids[k][-1]:.3g}]"
                )

    def _time_blend(self, t: float) -> tuple[int, int, float]:
        t = min(max(t, 0.0), self.T)
        pos = t / (self.s_grid[1] - self.s_grid[0]) if len(self.s_grid) > 1 else 0.0
        i = min(int(pos), len(self.s_grid) - 1)
        j = min(i + 1, len(self.s_grid) - 1)
        frac = pos - i if j > i else 0.0
        return i, j, frac

    def _level(self, t: float) -> np.ndarray:
        """The padded stacked (u, grad u) table at time t, (d + d*d, *padded
        shape): (1 - frac) * a + frac * b of the two time levels around t,
        or the level itself when t is on one."""
        i, j, frac = self._time_blend(t)
        if not frac:
            return self._ud[i]
        out = (1 - frac) * self._ud[i]
        out += frac * self._ud[j]
        return out

    def _blend_axes(self, v: np.ndarray, spans: list, offs: list) -> np.ndarray:
        """Blend gathered corner values v (d + d*d, 2^d, n) axis by axis with
        np.interp's arithmetic (hi - lo) / span * off + lo, in place."""
        v = v.reshape(len(v), *(2,) * self.d, -1)
        for span, off in zip(spans, offs):
            lo = v[:, 0]
            v = v[:, 1] - lo
            v /= span
            v *= off
            v += lo
        return v

    def _lookup(self, t: float, x: np.ndarray) -> np.ndarray:
        """u and grad u at (t, x), stacked into shape (d + d*d, n): u_c, then
        d u_c / d x_k at row d + c*d + k.

        Along each axis the cell k of x is floor((x - x0)/dx), nudged to
        np.interp's g[k] <= x < g[k + 1] where rounding puts x on the other
        side of a node.  The 2^d cell corners are gathered from the two time
        levels around t and blended in time first, with _level's
        (1 - frac) * a + frac * b, so they are the corners of _level(t);
        one pass of np.interp's arithmetic along each axis then blends them.
        On a time level the d=1 values are np.interp's bit for bit.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._check_cover(x)
        flat, spans, offs = 0, [], []
        for xa, gx in zip(x.T, self._gx):
            k = np.minimum(((xa - gx[0]) / (gx[1] - gx[0])).astype(np.intp), len(gx) - 2)
            k -= xa < gx[k]
            k += xa >= gx[k + 1]
            lo = gx.take(k)
            spans.append(gx.take(k + 1) - lo)
            offs.append(xa - lo)
            flat = flat * len(gx) + k
        cells = flat + self._corners[:, None]
        i, j, frac = self._time_blend(t)
        levels = self._ud.reshape(*self._ud.shape[:2], -1)
        v = levels[i].take(cells, axis=1)
        if frac:
            v *= 1 - frac
            v += frac * levels[j].take(cells, axis=1)
        return self._blend_axes(v, spans, offs)

    def eval_u(self, t: float, x: np.ndarray) -> np.ndarray:
        """u(t, x) for batched x (n, d); t is clamped into [0, T]."""
        return self._lookup(t, x)[: self.d].T

    def eval_du(self, t: float, x: np.ndarray) -> np.ndarray:
        """Jacobian of u, shape (n, d, d)."""
        return self._lookup(t, x)[self.d :].T.reshape(-1, self.d, self.d)

    def eval_u_du(self, t: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(eval_u, eval_du) from one lookup."""
        ud = self._lookup(t, x)
        return ud[: self.d].T, ud[self.d :].T.reshape(-1, self.d, self.d)


def _du_of(u_tab: np.ndarray, grids: list) -> np.ndarray:
    d = len(grids)
    du = np.empty((*u_tab.shape, d))
    for k in range(d):
        du[..., k] = np.gradient(u_tab, grids[k], axis=1 + k)
    return du


def _g_of(b_tab: np.ndarray, u_tab: np.ndarray, grids: list) -> np.ndarray:
    """Integrand b + (grad u) b on a stack of time levels (n, *shape, d)."""
    return b_tab + np.einsum("...ck,...k->...c", _du_of(u_tab, grids), b_tab)


def _gradient_matrix(grids: list, k: int) -> sparse.csr_matrix:
    """np.gradient(., grids[k], axis=k) on the flattened tensor grid.

    The 1-d stencil is read off np.gradient itself: applied to the indicator
    of the nodes j = m (mod 3), it returns at each row the one band entry
    whose column is m (mod 3).
    """
    from scipy import sparse

    j = np.arange(len(grids[k]))
    probe = np.stack([np.gradient((j % 3 == m).astype(float), grids[k]) for m in range(3)])
    lower = probe[(j[1:] - 1) % 3, j[1:]]
    main = probe[j % 3, j]
    upper = probe[(j[:-1] + 1) % 3, j[:-1]]
    stencil = sparse.diags([lower, main, upper], [-1, 0, 1])
    before = sparse.identity(math.prod(len(g) for g in grids[:k]))
    after = sparse.identity(math.prod(len(g) for g in grids[k + 1 :]))
    return sparse.kron(sparse.kron(before, stencil), after, format="csr")


@dataclass
class _Discretization:
    """Grid, time levels, drift table and semigroup shared by the backward
    sweep and the Picard diagnostic."""

    lam: float
    T: float
    rates: np.ndarray
    sigma: float
    s_grid: np.ndarray
    grids: list
    dt: float
    b_tab: np.ndarray  # (n_t, *shape, d)
    ops: list  # per time offset k = 1..n_t-1, the _ou_operators of P0_{k dt}

    def semigroup(self, k: int, vals: np.ndarray) -> np.ndarray:
        return _apply_ou(vals, self.ops[k - 1])

    def tail(self, g: np.ndarray, i: int) -> np.ndarray:
        """Trapezoid quadrature of the g_j, j > i, into level i:
        sum_k e^{-lam k dt} dt P0_{k dt} g_{i+k}, the node at T at half weight."""
        n_t = len(self.s_grid)
        acc = np.zeros(g.shape[1:])
        for k in range(1, n_t - i):
            coeff = math.exp(-self.lam * k * self.dt) * self.dt
            if coeff < 1e-16:
                break
            if i + k == n_t - 1:
                coeff *= 0.5
            acc += coeff * self.semigroup(k, g[i + k])
        return acc

    def solution(self, u: np.ndarray, ratios: list) -> ZvonkinSolution:
        return ZvonkinSolution(
            self.lam, self.T, self.rates, self.sigma, self.s_grid, self.grids,
            u, _du_of(u, self.grids), ratios,
        )


def _discretize(
    m: ModelSpec, lam: float, T: float, x_max: float, n_x: int, n_t: int, quad_order: int
) -> _Discretization:
    """The grid is padded past x_max by the quadrature reach so interior
    queries never leave it."""
    if m.A is None:
        raise ValueError("transform needs an explicit linear part")
    sigma = float(m.Q_bounds.get("Q", 0.0))
    if sigma <= 0:
        raise ValueError("transform needs a non-degenerate constant diffusion bound")
    if lam <= 0 or T <= 0:
        raise ValueError("lam and T must be positive")
    rates = m.A.eigenvalues
    d = m.d
    z, w = _hermite(quad_order)
    pad = x_max + float(np.abs(z).max()) * float(_ou_sd(rates, sigma, T).max()) + 1.0
    nn = max(n_x, int(round(n_x * pad / max(x_max, 1.0))))
    grids = [np.linspace(-pad, pad, nn) for _ in range(d)]
    shape = tuple(len(g) for g in grids)
    pts = np.array(np.meshgrid(*grids, indexing="ij")).reshape(d, -1).T
    s_grid = np.linspace(0.0, T, n_t)
    dt = float(s_grid[1] - s_grid[0])
    b_tab = np.stack([np.asarray(m.b(s, pts), dtype=float) for s in s_grid]).reshape(n_t, *shape, d)
    ops = _ou_operators(grids, rates, sigma, z, w, dt, n_t - 1)
    return _Discretization(lam, T, rates, sigma, s_grid, grids, dt, b_tab, ops)


def solve_u(
    m: ModelSpec,
    lam: float,
    T: float,
    x_max: float = 6.0,
    n_x: int = 401,
    n_t: int = 65,
    quad_order: int = 24,
) -> ZvonkinSolution:
    """u as the exact fixed point of the discrete Picard map, in one backward
    sweep.

    The map is affine in u and upper-triangular in time: level s_i sees the
    integrand g = b + (grad u) b at s_j for j >= i, and only the trapezoid
    term j = i involves u_i.  So from u(T) = 0 downward each level solves
    (I - dt/2 sum_k diag(b_k) D_k) u_i = dt/2 b_i + (quadrature of g_j, j > i)
    with D_k the np.gradient stencil along axis k.  The operator is factored
    on the first level and again on each level whose b differs from the b
    it was factored for.  The returned ratios are
    empty; picard_u measures the contraction.  Raises DivergenceError when
    sup |grad u| >= 1, where Theta^{-1} no longer contracts.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    disc = _discretize(m, lam, T, x_max, n_x, n_t, quad_order)
    grids, b_tab = disc.grids, disc.b_tab
    d = len(grids)
    n = b_tab[0].size // d
    half = 0.5 * disc.dt
    grads = [_gradient_matrix(grids, k) for k in range(d)]
    eye = sparse.identity(n)
    u = np.zeros(b_tab.shape)
    g = np.empty_like(u)
    g[-1] = b_tab[-1]  # u(T) = 0
    lu = b_lu = None
    for i in range(n_t - 2, -1, -1):
        b = b_tab[i].reshape(n, d)
        if b_lu is None or not np.array_equal(b, b_lu):
            # diag(b_k) D_k scales row j of D_k by b[j, k]
            op = eye - half * sum(grads[k].multiply(b[:, k : k + 1]) for k in range(d))
            lu, b_lu = splu(sparse.csc_matrix(op)), b
        rhs = half * b + disc.tail(g, i).reshape(n, d)
        u[i] = lu.solve(rhs).reshape(u[i].shape)
        g[i] = _g_of(b_tab[i : i + 1], u[i : i + 1], grids)[0]
    disc.ops = None  # freed before the solution's tables are built, which lowers the peak
    sol = disc.solution(u, [])
    if not sol.du_sup < 1.0:
        raise DivergenceError(
            f"sup |grad u| = {sol.du_sup:.3g} >= 1 at lam={lam}: Theta^{{-1}} does not contract"
        )
    return sol


def picard_u(
    m: ModelSpec,
    lam: float,
    T: float,
    x_max: float = 6.0,
    n_x: int = 401,
    n_t: int = 65,
    quad_order: int = 24,
    tol: float = 1e-8,
    max_iter: int = 80,
) -> ZvonkinSolution:
    """Picard iteration for the u of solve_u, kept as the measured contraction
    diagnostic: the solution carries the ratio of successive sup-norm updates.
    Raises DivergenceError after three consecutive non-contracting sweeps or
    when max_iter sweeps do not reach tol.
    """
    disc = _discretize(m, lam, T, x_max, n_x, n_t, quad_order)
    u = np.zeros(disc.b_tab.shape)
    ratios: list = []
    prev_diff = None
    bad = 0
    for _ in range(max_iter):
        g = _g_of(disc.b_tab, u, disc.grids)
        new_u = np.zeros_like(u)
        for i in range(n_t - 1):
            new_u[i] = 0.5 * disc.dt * g[i] + disc.tail(g, i)
        diff = float(np.abs(new_u - u).max())
        if prev_diff is not None and prev_diff > 0:
            r = diff / prev_diff
            ratios.append(r)
            bad = bad + 1 if r >= 1.0 else 0
            if bad >= 3:
                raise DivergenceError(
                    f"no contraction at lam={lam}: last ratios {ratios[-3:]}"
                )
        prev_diff = diff
        u = new_u
        if diff < tol:
            return disc.solution(u, ratios)
    raise DivergenceError(f"no convergence in {max_iter} sweeps (last diff {prev_diff:g})")


_INVERSE_TOL = 1e-12  # per-row update at which the d>1 fixed point stops
_INVERSE_MAX_ITER = 200
_BINS_PER_NODE = 4  # cap on the size of _theta_cells' bin table


def _theta_cells(nodes: np.ndarray, width: float, y: np.ndarray) -> np.ndarray:
    """np.interp's cell of each y among strictly increasing nodes with +inf
    appended, the last k with nodes[k] <= y, for y in [nodes[0],
    nodes[-2]]; width is the narrowest cell.

    A batch with at least one row per node takes a table of uniform bins no
    wider than the narrowest cell, and at most _BINS_PER_NODE per node.
    Each row starts at the last node of an earlier bin and steps right past
    the nodes of its own bin.  The bin index floor((v - nodes[0]) * scale)
    is monotone in v, so a start never lies past its row's cell, and the
    steps take as many vectorized passes as the fullest bin holds nodes:
    one when the narrowest cell sets the bin width, more where a steep u
    makes a cell narrow and the cap sets it.  A smaller batch, which does
    not repay the table's fixed cost, and a table whose fullest bin holds
    more nodes than a binary search takes steps, take a binary search.
    """
    n = len(nodes) - 1
    if len(y) < n:
        return np.searchsorted(nodes, y, "right") - 1
    scale = min(1.0 / width, _BINS_PER_NODE * n / (nodes[-2] - nodes[0]))
    counts = np.bincount(((nodes[:-1] - nodes[0]) * scale).astype(np.intp))
    if counts.max() > n.bit_length():
        return np.searchsorted(nodes, y, "right") - 1
    start = np.cumsum(counts)
    start -= counts + 1  # the last node of an earlier bin
    start[0] = 0
    k = start.take(((y - nodes[0]) * scale).astype(np.intp))
    ahead = nodes[1:]
    for _ in range(counts.max()):
        step = y >= ahead.take(k)
        if not step.any():
            break
        k += step
    return k


def theta(sol: ZvonkinSolution, t: float, x: np.ndarray) -> np.ndarray:
    """Theta(t, x) = x + u(t, x)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return x + sol.eval_u(t, x)


def theta_inverse(sol: ZvonkinSolution, t: float, y: np.ndarray) -> np.ndarray:
    """Theta^{-1}(t, y) for batched y (n, d), row by row: the root of
    theta_inverse_ud."""
    return theta_inverse_ud(sol, t, y)[0]


def theta_inverse_ud(sol: ZvonkinSolution, t: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, ud): the root x (n, d) of Theta(t, x) = y for batched y, row by
    row, and u and grad u at (t, x) stacked as ZvonkinSolution._lookup
    returns them, shape (d + d*d, n), with the bits of sol.eval_u_du(t, x).

    In d=1 Theta(t, .) is piecewise linear with nodes g + u(t, g), so the
    root is np.interp(y, g + u(t, g), g), bit for bit: exact, with no
    iteration, and its cell found from a bin table (see _theta_cells).  The stacked
    table is blended to time t once (ZvonkinSolution._level); its u row
    gives the nodes, and the root's lookup cell in it gives ud.  It raises
    CoverageError when y or its root lies outside the grid, and
    InverseConvergenceError when the nodes are not strictly increasing (a
    cell slope of u at or below -1).  In d>1 it iterates the fixed point
    x = y - u(t, x), which contracts since |grad u| < 1, on the rows that
    have not converged; each row stops once its own update is below
    _INVERSE_TOL, so its root does not depend on the batch it is in.  One
    lookup at the root then gives ud.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if sol.d == 1:
        sol._check_cover(y)
        g = sol.grids[0]
        table = sol._level(t)
        padded = sol._gx[0] + table[0]  # the nodes, then +inf
        nodes = padded[:-1]
        widths = nodes[1:] - nodes[:-1]
        narrowest = widths.min()
        if not narrowest > 0:
            raise InverseConvergenceError(
                f"Theta(t={t:g}, .) is not strictly increasing on the grid"
            )
        yv = y[:, 0]
        y_min, y_max = yv.min(), yv.max()
        if y_min < nodes[0] or y_max > nodes[-1]:
            raise CoverageError(
                f"root of Theta(t={t:g}, x) = y outside tabulated grid: y in "
                f"[{y_min:.3g}, {y_max:.3g}] vs [{nodes[0]:.3g}, {nodes[-1]:.3g}]"
            )
        k = _theta_cells(padded, narrowest, yv)
        # np.interp's arithmetic: y on a node (the last one included) is its g
        base, lo = nodes.take(k), g.take(k)
        x = ((g[1:] - g[:-1]) / widths).take(k, mode="clip") * (yv - base) + lo
        on = yv == base
        if on.any():
            x[on] = lo[on]
        # the cell _lookup picks for x: g[k] <= x, and x may round onto g[k + 1]
        gx = sol._gx[0]
        step = x >= gx.take(k + 1)
        if step.any():
            k += step
            lo = gx.take(k)
        corners = table.take(k + sol._corners[:, None], axis=1)
        return x[:, None], sol._blend_axes(corners, [gx.take(k + 1) - lo], [x - lo])
    x = y.copy()
    rows = np.arange(len(y))
    for _ in range(_INVERSE_MAX_ITER):
        xr = x[rows]
        xn = y[rows] - sol.eval_u(t, xr)
        x[rows] = xn
        rows = rows[np.abs(xn - xr).max(axis=1) >= _INVERSE_TOL]
        if not len(rows):
            return x, sol._lookup(t, x)
    raise InverseConvergenceError(
        f"the inverse fixed point of {len(rows)} rows did not reach tolerance"
    )


def _seg_times(t: float, n_nodes: int, h: float) -> np.ndarray:
    return t - h * np.arange(n_nodes - 1, -1, -1)


def theta_segment(sol: ZvonkinSolution, t: float, seg: np.ndarray, h: float) -> np.ndarray:
    """Nodewise Theta on segment windows (n, n0+1, d); u before time 0 equals u(0)."""
    out = np.empty_like(seg)
    for i, ti in enumerate(_seg_times(t, seg.shape[1], h)):
        out[:, i] = seg[:, i] + sol.eval_u(ti, seg[:, i])
    return out


@dataclass
class TransformedModel:
    """A base equation and the transform Theta = id + u that regularizes its
    drift (sol None: the identity).  The coefficients of the transformed
    equation are formed by transformed_coefficients; the runners read d and
    dbar from base."""

    base: ModelSpec
    sol: ZvonkinSolution | None

    def seg_to_transformed(self, t: float, seg: np.ndarray, h: float) -> np.ndarray:
        return theta_segment(self.sol, t, seg, h) if self.sol is not None else seg


def transformed_coefficients(
    tm: TransformedModel,
    t: float,
    state: np.ndarray,
    point_inv: np.ndarray,
    ud: np.ndarray | None,
    avg_inv: np.ndarray | None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Drift and diffusion of the transformed equation at time t.

    state (n, d) is the transformed state, point_inv = Theta^{-1}(t, state),
    ud the (u, grad u) at (t, point_inv) that theta_inverse_ud returned with
    it (None for the identity transform), and avg_inv (n, d) the average
    nu(.) of the pulled-back segment window.  The drift is
    -a x + (lam + a) u + (I + grad u) B and the diffusion (I + grad u) Q,
    with u, B and Q at the pulled-back arguments; sol None is the identity
    transform, which only folds A into the delay drift.  Without an average
    only the diffusion is formed and the drift is None.

    The diffusion has one entry per row, in a form that model.noise_product
    and girsanov.solve_qqt take: (n, d, dbar), or, when base declares a
    constant Q (dQ = 0) and d = dbar = 1, the 1-D (1 + u') q, with Q read
    once by diffusion_at.
    """
    base, sol = tm.base, tm.sol
    Qv = diffusion_at(base, t, point_inv)
    if sol is not None:
        d = sol.d
        u0, du = ud[:d].T, ud[d:].T.reshape(-1, d, d)
        dth = np.eye(d)[None] + du
        if Qv.ndim == 1:
            Qv = dth[:, 0, 0] * Qv
        else:
            Qv = np.einsum("nck,nkj->ncj", dth, Qv)
    elif Qv.ndim == 1:  # one q for every row; the runners select rows of it
        Qv = np.broadcast_to(Qv, len(state))
    if avg_inv is None:
        return None, Qv
    a = base.A.eigenvalues
    Bv = base.B(t, avg_inv)
    if sol is None:
        return -a * state + Bv, Qv
    return -a * state + (sol.lam + a) * u0 + np.einsum("nck,nk->nc", dth, Bv), Qv


def needs_transform(m: ModelSpec) -> bool:
    """Whether the drift b of m is non-zero at the probe points, so that
    only a solved u (not the identity transform) carries its dynamics."""
    probe = np.repeat([[0.25], [2.0]], m.d, axis=1)
    return bool(np.any(m.b(0.0, probe) != 0.0))


def transformed_model(m: ModelSpec, nu: DelayMeasure, sol: ZvonkinSolution | None) -> TransformedModel:
    """Push the dynamics of m through Theta = id + u (the identity when sol is
    None, which only folds A into the delay drift).

    The transformed drift depends on the state as well as on the average of
    the pulled-back window, so it has no B(t, avg) of its own: the runners
    form it with transformed_coefficients.  nu is not read.  The
    identity transform drops b, so sol None is refused for a model whose
    drift needs_transform finds non-zero.
    """
    if m.A is None:
        raise ValueError("base model must carry an explicit linear part")
    if sol is None and needs_transform(m):
        raise ValueError(
            f"model {m.name!r} has a non-zero drift b, which the identity transform drops"
        )
    return TransformedModel(m, sol)


def start_transformed(tm: TransformedModel, nu: DelayMeasure, seg, n_paths, n_rows, path_offset):
    """(rows, history, ud, averages) for n_paths paths that all start from
    the one transformed segment seg (n0+1, d): rows, a measure.Rows that
    stores all n_rows rows and holds seg on [-r0, 0]; history, a Rows ring
    of n0 + 2 slots holding Theta^{-1} of seg there; the (u, grad u) of
    theta_inverse_ud at the pull-back of seg's last node, one column per
    row; and the delay_averages of history.

    With the identity transform the path is its own pull-back: history is
    rows, with ud None.  Otherwise seg is pulled back once
    and broadcast: every node of [-r0, 0] reads u(0), and the inverse works
    row by row, so each row has the bits of a batch inverse of identical
    rows.  The runner fills each later node's slot, and keeps the current
    node's ud, as the path grows.
    """
    seg = np.asarray(seg, dtype=float)
    check_segment_shape(seg, nu.n_cells, tm.base.d)
    rows = Rows(n_paths, n_rows, tm.base.d, first=seg)
    history, ud = rows, None
    if tm.sol is not None:
        inv, ud = theta_inverse_ud(tm.sol, 0.0, seg)
        history = Rows(n_paths, n_rows, tm.base.d, n_slots=len(seg) + 1, first=inv)
        ud = np.repeat(ud[:, -1:], n_paths, axis=1)
    return rows, history, ud, delay_averages(nu, history, path_offset)


def transformed_step(tm: TransformedModel, t, h, state, point_inv, ud, avg_inv, dW_k) -> tuple:
    """(next state, drift, diffusion): one Euler-Maruyama step
    state + h * drift + diffusion dW_k of the transformed equation, with the
    transformed_coefficients of (t, state, point_inv, ud, avg_inv).  The
    floating-point error state is the caller's."""
    drift, Qv = transformed_coefficients(tm, t, state, point_inv, ud, avg_inv)
    return state + h * drift + noise_product(Qv, dW_k), drift, Qv


def simulate_transformed(
    tm: TransformedModel,
    nu: DelayMeasure,
    xi_t: np.ndarray,
    cfg,
    base_seed: int,
    n_paths: int,
    path_offset: int = 0,
    dW: np.ndarray | None = None,
):
    """Euler integration of the transformed equation with the pulled-back
    states cached in a ring of n0 + 2 rows, so the delay drift reads the
    streamed averages of the pulled-back windows instead of inverting every
    node again, and the current node's (u, grad u) kept from the inverse that
    found it.

    Only cfg.h, cfg.t_end and cfg.trunc_level are read: cfg.scheme is not.
    The transformed equation is always stepped by Euler-Maruyama with A
    folded into the drift, so a comparison with solver.simulate must pass
    scheme="euler-maruyama".  A finite cfg.trunc_level is a ValueError:
    there is no truncation here.

    xi_t: transformed initial segment values (n0+1, d).  Returns (states, dW)
    with states of shape (n_paths, n0+steps+1, d) on [-r0, t_end], the
    paths view of a stored measure.Rows.
    """
    if math.isfinite(cfg.trunc_level):
        raise ValueError("simulate_transformed does not truncate; trunc_level must be inf")
    n0 = nu.n0(cfg.h)
    steps = grid_count(cfg.t_end, cfg.h, "t_end")
    h = cfg.h
    states, xinv, ud, avg = start_transformed(tm, nu, xi_t, n_paths, n0 + steps + 1, path_offset)
    dW = path_increments(dW, base_seed, path_offset, n_paths, steps, tm.base.dbar, h)
    for k in range(steps):
        t, r = k * h, n0 + k
        states[r + 1] = transformed_step(tm, t, h, states[r], xinv[r], ud, next(avg), dW[:, k])[0]
        if tm.sol is not None:
            xinv[r + 1], ud = theta_inverse_ud(tm.sol, t + h, states[r + 1])
    return states.paths, dW


@dataclass
class DecayReport:
    lams: list
    u_sups: list
    du_sups: list
    d2u_sups: list
    lam_star: float | None  # smallest lam with grad-u bound <= 1/2
    monotone: bool
    solutions: dict = field(repr=False, default_factory=dict)


def verify_decay(m: ModelSpec, lams, T: float, **solve_kwargs) -> DecayReport:
    """Picard-solve u over a ladder of lam values and check the three norms
    shrink; each solution carries its contraction ratios."""
    lams = sorted(float(x) for x in lams)
    us, dus, d2us = [], [], []
    sols = {}
    for lam in lams:
        sol = picard_u(m, lam, T, **solve_kwargs)
        sols[lam] = sol
        us.append(sol.u_sup)
        dus.append(sol.du_sup)
        d2us.append(sol.d2u_sup)
    tol = 1e-9
    mono = all(
        all(seq[i + 1] <= seq[i] + tol for i in range(len(seq) - 1))
        for seq in (us, dus, d2us)
    )
    lam_star = next((l for l, v in zip(lams, dus) if v <= 0.5), None)
    return DecayReport(lams, us, dus, d2us, lam_star, mono, sols)
