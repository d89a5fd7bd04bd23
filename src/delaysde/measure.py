"""Delay measure, weighted segment space and streamed delay averages.

The delay measure nu lives on [-r0, 0) and is discretized into cell masses
w_j = nu([theta_j, theta_{j+1})) on a uniform grid theta_j = -r0 + j*h.  A
segment is a path window sampled on the same grid, including the endpoint
theta = 0; its norm is sqrt(nu(|xi|^2) + |xi(0)|^2) with left-endpoint cell
evaluation, so the theta = 0 node carries no cell mass.

Two segments are identified when they agree at theta = 0 and on every cell of
positive mass; equality, norms and the coefficients downstream all see only
this quotient representative.

The delay drift enters through the average nu(window_k) = sum_j w_j x(k + j)
of each step's window.  delay_averages streams these averages for a path
batch that grows by one row per step, held in a Rows buffer: the one
time-major layout of every runner's rows, stored whole or as a ring of the
latest rows (see Rows for its slot rule).

When the cell masses are geometric, w_{j+1} = w_j / c with 0 < c <= 1 (the
exponential measure with lam >= 0, lam = 0 and the uniform measure), the
averages follow the recursive moving sum, the discrete linear chain trick:
A_{k+1} = c (A_k - w_0 x(k)) + w_{n0-1} x(k + n0), two rows per step
whatever n0 is.  An exact sum re-anchors it every n0 steps, so rounding
never builds up over more than one window.  Any other measure (atoms, or a
decreasing density, whose factor c > 1 would amplify rounding) streams its
averages in blocked products: at the start of a block of steps the rows
already known go through one matrix product against the block's Toeplitz
weights, and each row written inside the block is pushed into the block's
remaining averages as soon as it is known.  Each product has a fixed shape on
a zero-padded tile of paths aligned to the global path index, and the
recursion, the anchors and the pushes are elementwise, so in either mode a
path's bits never depend on the batch it runs in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DelayMeasure",
    "Segment",
    "GridMismatchError",
    "make_measure",
    "seg_norm",
    "seg_inner",
    "segments_equal",
    "check_shift_domination",
    "constant_segment",
    "Rows",
    "delay_averages",
    "streamed_seg_norms",
]

# Steps per block of delay averages (capped at n0) and paths per product
# tile.  Both fix the shape of every matrix product of the blocked mode.
AVERAGE_BLOCK = 32
PATH_TILE = 256
# Values in the temporary product of one push of a written row into the
# block's averages; the push is split over averages to stay within it.
_PUSH_SIZE = 2**15
# Largest relative deviation of the cell masses from a geometric sequence at
# which delay_averages takes the sliding recursion.
_GEOMETRIC_RTOL = 1e-12


class GridMismatchError(ValueError):
    """A time quantity is not commensurate with the grid step."""


def grid_count(span: float, h: float, what: str = "span") -> int:
    """span / h as an exact integer, or GridMismatchError."""
    if not (math.isfinite(span) and math.isfinite(h)):
        raise ValueError(f"{what}={span} and h={h} must be finite")
    if h <= 0:
        raise ValueError(f"grid step must be positive, got {h}")
    n = span / h
    n_int = int(round(n))
    if n_int < 0 or abs(n - n_int) > 1e-9 * max(1.0, abs(n)):
        raise GridMismatchError(f"{what}={span} is not an integer multiple of h={h}")
    return n_int


@dataclass(frozen=True)
class DelayMeasure:
    """Discretized delay measure on [-r0, 0) with shift-domination function kappa."""

    r0: float
    h: float
    weights: np.ndarray  # (n_cells,) cell masses nu([theta_j, theta_{j+1}))
    kind: str
    kappa: Callable[[float], float]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(w) != grid_count(self.r0, self.h, "r0"):
            raise GridMismatchError("weights length must equal r0/h")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("cell masses must be finite and non-negative")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n_cells(self) -> int:
        return len(self.weights)

    def n0(self, h: float) -> int:
        """The window length r0 / h of a runner stepping with h, which must be
        this grid's step: the cell masses belong to one grid."""
        if h != self.h:
            raise GridMismatchError(f"runner step h={h} differs from the measure's step h={self.h}")
        return self.n_cells

    @property
    def thetas(self) -> np.ndarray:
        """Node offsets -r0, -r0+h, ..., 0 (n_cells+1 values)."""
        return -self.r0 + self.h * np.arange(self.n_cells + 1)

    def total_mass(self, window: float | None = None) -> float:
        """nu([-min(window, r0), 0)); full mass when window is None."""
        if window is None or window >= self.r0:
            return float(self.weights.sum())
        k = grid_count(self.r0 - window, self.h, "r0 - window")
        return float(self.weights[k:].sum())

    def average(self, window: np.ndarray) -> np.ndarray:
        """nu(window) per component for batched windows (n, n_cells+1, d) -> (n, d).

        The theta = 0 node carries no mass and a null cell has weight 0, so
        the average sees only the quotient representative.  For one-off
        windows; a path batch stepped in time uses delay_averages.
        """
        return np.einsum("j,njd->nd", self.weights, window[:, :-1])


@dataclass(frozen=True)
class Segment:
    """Path restriction to [-r0, 0], sampled on the measure grid (theta=0 included)."""

    values: np.ndarray  # (n_cells + 1, d)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if not np.all(np.isfinite(v)):
            raise ValueError("segment values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def at_zero(self) -> np.ndarray:
        return self.values[-1]


def constant_segment(m: DelayMeasure, value, d: int | None = None) -> Segment:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    if d is not None and value.size == 1:
        value = np.full(d, value[0])
    return Segment(np.tile(value, (m.n_cells + 1, 1)))


def make_measure(
    kind: str,
    r0: float,
    h: float,
    lam: float | None = None,
    density: float = 1.0,
    weights: Sequence[float] | None = None,
    kappa: Callable[[float], float] | None = None,
) -> DelayMeasure:
    """Build a delay measure of a given kind.

    kind="exponential": density e^{lam*theta} on [-r0, 0); cell masses are exact
    antiderivative differences; kappa(t) = max(1, e^{-lam t}).
    kind="uniform": constant density; kappa = 1.
    kind="atoms": explicit per-cell masses (point-mass lists snapped to cells);
    kappa defaults to the measured worst shift ratio.
    """
    if r0 <= 0 or h <= 0:
        raise ValueError(f"r0 and h must be positive, got r0={r0}, h={h}")
    n = grid_count(r0, h, "r0")
    thetas = -r0 + h * np.arange(n + 1)
    if kind == "exponential":
        if lam is None:
            raise ValueError("exponential kind requires lam")
        if lam == 0.0:
            w = np.full(n, h)
        else:
            w = (np.exp(lam * thetas[1:]) - np.exp(lam * thetas[:-1])) / lam
        lam_f = float(lam)
        kap = kappa or (lambda t, _l=lam_f: max(1.0, float(np.exp(-_l * t))))
        return DelayMeasure(r0, h, w, "exponential", kap)
    if kind == "uniform":
        w = np.full(n, density * h)
        return DelayMeasure(r0, h, w, "uniform", kappa or (lambda t: 1.0))
    if kind == "atoms":
        if weights is None:
            raise ValueError("atoms kind requires explicit weights")
        w = np.asarray(weights, dtype=float)
        m = DelayMeasure(r0, h, w, "atoms", kappa or (lambda t: 1.0))
        if kappa is None:
            kap = _measured_kappa(m)
            m = DelayMeasure(r0, h, w, "atoms", kap)
        return m
    raise ValueError(f"unknown measure kind {kind!r}; expected exponential, uniform or atoms")


def _shift_ratios(w: np.ndarray, k: int, kap: float = 1.0) -> np.ndarray:
    """Per cell j, the mass w_{j-k} shifted onto it over kap * w_j; a zero
    cell scores inf when mass lands on it and 0 otherwise."""
    n = len(w)
    shifted = np.zeros(n)
    shifted[k:] = w[: n - k]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(w > 0, shifted / (kap * np.where(w > 0, w, 1.0)), np.where(shifted > 0, np.inf, 0.0))


def _measured_kappa(m: DelayMeasure) -> Callable[[float], float]:
    """Smallest non-decreasing kappa dominating the observed grid-shift ratios."""
    n = m.n_cells
    worst = np.ones(n + 1)
    for k in range(1, n + 1):
        worst[k] = max(1.0, float(_shift_ratios(m.weights, k).max()))
    env = np.maximum.accumulate(worst)

    def kap(t: float) -> float:
        k = min(int(np.ceil(t / m.h - 1e-12)), n)
        return float(env[max(k, 0)])

    return kap


def _toeplitz_weights(w: np.ndarray, n_steps: int) -> np.ndarray:
    """(n_steps, n0+1) weights of the rows k0..k0+n0 in the averages of steps
    k0..k0+n_steps-1: row i holds w_j at column i + j, for the rows known
    when step k0 starts."""
    n0 = len(w)
    j = np.arange(n0 + 1)[None, :] - np.arange(n_steps)[:, None]
    return np.where((j >= 0) & (j < n0), w[np.clip(j, 0, n0 - 1)], 0.0)


def _slide_factor(w: np.ndarray) -> float | None:
    """The factor c of the sliding recursion when w_j = w_{n0-1} c^{n0-1-j}
    to _GEOMETRIC_RTOL with 0 < c <= 1; None otherwise."""
    n0 = len(w)
    if n0 == 1:
        return 1.0  # every step is an anchor
    if not np.all(w > 0):
        return None
    c = float((w[0] / w[-1]) ** (1.0 / (n0 - 1)))
    fit = w[-1] * c ** np.arange(n0 - 1, -1, -1.0)
    if c > 1.0 or np.abs(w - fit).max() > _GEOMETRIC_RTOL * fit.min():
        return None
    return c


class Rows:
    """Rows 0..n_rows-1 of a batch of n paths in d dimensions, time-major in
    n_slots slots: every row (n_slots = n_rows) or a ring of the latest rows.

    Row r sits in slot (r + shift) % n_slots with shift = (n_slots - n_rows)
    % n_slots, which puts the last row in the last slot; a stored batch has
    shift 0.  The buffer is an (n_slots, n, d) array seen through its
    transposed (n, n_slots, d) view paths, so rows[r], row r of every path,
    is one contiguous (n, d) block that a step reads or writes whole.  first,
    a segment (n0 + 1, d) shared by every path, fills rows 0..n0.  A ring
    that streams delay_averages holds at least n0 + 2 slots.
    """

    def __init__(self, n: int, n_rows: int, d: int, n_slots: int | None = None, first=None):
        n_slots = n_rows if n_slots is None else min(n_slots, n_rows)
        self.n_rows, self.n_slots, self.shift = n_rows, n_slots, (n_slots - n_rows) % n_slots
        self.paths = np.empty((n_slots, n, d)).transpose(1, 0, 2)
        if first is not None:
            self.paths[:, self.slot(np.arange(len(first)))] = first

    @classmethod
    def stored(cls, paths: np.ndarray) -> Rows:
        """Every row of a stored batch paths (n, n_rows, d), path-major or the
        view of a time-major buffer, with shift 0."""
        rows = cls.__new__(cls)
        rows.n_rows = rows.n_slots = paths.shape[1]
        rows.shift, rows.paths = 0, paths
        return rows

    def slot(self, r):
        return (r + self.shift) % self.n_slots

    # the slot rule inline: a runner's step reads and writes several rows
    def __getitem__(self, r: int) -> np.ndarray:
        return self.paths[:, (r + self.shift) % self.n_slots]

    def __setitem__(self, r: int, value) -> None:
        self.paths[:, (r + self.shift) % self.n_slots] = value


def delay_averages(m: DelayMeasure, rows: Rows, path_offset: int = 0):
    """Yield nu(window_k) per component, shape (n, d), for k = 0, 1, ...,
    n_rows - n0 - 2, where window_k holds rows k..k+n0 of the batch rows,
    whose first path has global index path_offset.

    A ring must hold at least n0 + 2 slots.  The caller may write the batch
    one row per step, but row k + n0 must be written before average k is
    taken, and row k - 1 must still be held then.  The rows are read by
    slot, which is contiguous in a time-major buffer; a stored path-major
    array gives the same bits, only more slowly.

    Geometric cell masses (see _slide_factor) take the sliding recursion in
    O(1) per step, re-anchored by an exact sum every n0 steps; other masses
    take the blocked products.  Both agree with the per-step sum to rounding.
    """
    n_slots = rows.n_slots
    if n_slots < min(m.n_cells + 2, rows.n_rows):
        raise ValueError(f"a ring of {n_slots} rows is shorter than the n0 + 2 an average reads")
    c = _slide_factor(m.weights)
    if c is None:
        return _blocked_averages(m.weights, rows, path_offset)
    return _sliding_averages(m.weights, c, rows)


def streamed_seg_norms(m: DelayMeasure, sq: Rows, path_offset: int = 0):
    """Yield the norms sqrt(nu(|x|^2) + |x(0)|^2), shape (n,), of the windows
    k = 0, 1, ... that delay_averages streams from |x|^2 rows sq (d = 1),
    under its rules; a streamed nu(|x|^2) rounded below 0 counts as 0."""
    n0 = m.n_cells
    for k, avg in enumerate(delay_averages(m, sq, path_offset)):
        yield np.sqrt(np.maximum(avg[:, 0], 0.0) + sq[k + n0][:, 0])


def _sliding_averages(w: np.ndarray, c: float, rows: Rows):
    """The recursive moving sum A_k = c (A_{k-1} - w_0 x(k-1)) + w_{n0-1}
    x(k+n0-1).  At every k that is a multiple of n0 it restarts from the sum
    w_0 x(k) + w_1 x(k+1) + ... + w_{n0-1} x(k+n0-1), taken elementwise in
    that order, so no step drifts more than n0 - 1 updates from an exact
    sum and no bit depends on the batch."""
    n0 = len(w)
    first, last = w[0], w[-1]
    for k in range(rows.n_rows - n0 - 1):
        if k % n0 == 0:
            avg = first * rows[k]
            for j in range(1, n0):
                avg += w[j] * rows[k + j]
        else:
            avg = avg - first * rows[k - 1]
            if c != 1.0:
                avg *= c
            avg += last * rows[k + n0 - 1]
        yield avg


def _blocked_averages(w: np.ndarray, rows: Rows, path_offset: int):
    """Averages in blocks of min(AVERAGE_BLOCK, n0) steps; the last block may
    be shorter.  At a block's first step the known rows k0..k0+n0 of each
    PATH_TILE-path tile are copied into a contiguous, zero-padded tile
    aligned to the global index and multiplied by the block's Toeplitz
    weights, so a path always takes the same place in a product of the same
    shape.  Each row written inside the block is added, with its weights, to
    the block's remaining averages before the next one is taken, elementwise
    and in row order, so the bits do not depend on the layout or the batch.
    """
    n0 = len(w)
    n, n_slots, d = rows.paths.shape
    by_time = rows.paths.transpose(1, 0, 2)
    steps = rows.n_rows - n0 - 1
    first, last = path_offset // PATH_TILE, (path_offset + n - 1) // PATH_TILE
    block = min(AVERAGE_BLOCK, n0)
    tile = np.empty((n0 + 1, PATH_TILE, d))
    known = np.empty((block, n, d))  # one buffer for every block
    toeplitz = _toeplitz_weights(w, block)
    push_rows = max(1, _PUSH_SIZE // (n * d))
    for k0 in range(0, steps, block):
        L = min(block, steps - k0)
        # rows k0..k0+n0 fill slots s.. up to the buffer's end, then wrap to slot 0
        s = rows.slot(k0)
        head = min(n0 + 1, n_slots - s)
        for t in range(first, last + 1):
            lo = max(t * PATH_TILE - path_offset, 0)
            hi = min((t + 1) * PATH_TILE - path_offset, n)
            at = path_offset + lo - t * PATH_TILE
            if hi - lo < PATH_TILE:
                tile.fill(0.0)
            tile[:head, at : at + hi - lo] = by_time[s : s + head, lo:hi]
            tile[head:, at : at + hi - lo] = by_time[: n0 + 1 - head, lo:hi]
            out = toeplitz[:L] @ tile.reshape(n0 + 1, PATH_TILE * d)
            known[:L, lo:hi] = out.reshape(L, PATH_TILE, d)[:, at : at + hi - lo]
        for i in range(L):
            if i >= 2:
                # row k0+n0+i-1 was written by the last step; it enters the
                # averages i..L-1 with weights w[n0-1], w[n0-2], ...
                wi = w[n0 - L + i : n0][::-1, None, None]
                row = rows[k0 + n0 + i - 1]
                for j in range(i, L, push_rows):
                    top = min(j + push_rows, L)
                    known[j:top] += wi[j - i : top - i] * row
            yield known[i].copy()  # known is refilled by the next block


def _check_compat(m: DelayMeasure, xi: Segment) -> None:
    if xi.values.shape[0] != m.n_cells + 1:
        raise GridMismatchError(
            f"segment has {xi.values.shape[0]} nodes, measure grid expects {m.n_cells + 1}"
        )


def check_segment_shape(values: np.ndarray, n0: int, d: int) -> None:
    """ValueError unless initial segment values have shape (n0 + 1, d): a
    segment of another d would broadcast into a runner's states."""
    if np.shape(values) != (n0 + 1, d):
        raise ValueError(f"initial segment shape {np.shape(values)} is not {(n0 + 1, d)}")


def seg_norm(m: DelayMeasure, xi: Segment) -> float:
    """C_nu norm sqrt(nu(|xi|^2) + |xi(0)|^2), left-endpoint cell rule."""
    _check_compat(m, xi)
    sq = np.sum(xi.values**2, axis=1)
    return float(np.sqrt(m.weights @ sq[:-1] + sq[-1]))


def seg_inner(m: DelayMeasure, xi: Segment, eta: Segment) -> float:
    """C_nu inner product nu(<xi, eta>) + <xi(0), eta(0)>."""
    _check_compat(m, xi)
    _check_compat(m, eta)
    if xi.d != eta.d:
        raise GridMismatchError("segment dimensions differ")
    dots = np.sum(xi.values * eta.values, axis=1)
    return float(m.weights @ dots[:-1] + dots[-1])


def segments_equal(m: DelayMeasure, xi: Segment, eta: Segment, tol: float = 0.0) -> bool:
    """Equality in the C_nu quotient: agree at theta=0 and on every positive-mass cell."""
    _check_compat(m, xi)
    _check_compat(m, eta)
    if xi.d != eta.d:
        return False
    diff = np.abs(xi.values - eta.values).max(axis=1)
    if diff[-1] > tol:
        return False
    return bool(np.all(diff[:-1][m.weights > 0] <= tol))


def batch_seg_norm(m: DelayMeasure, values: np.ndarray) -> np.ndarray:
    """Norms for a batch of segment value arrays, shape (n, n_cells+1, d) -> (n,)."""
    sq = np.sum(values**2, axis=2)
    return np.sqrt(sq[:, :-1] @ m.weights + sq[:, -1])


@dataclass
class ShiftDominationReport:
    passed: bool
    worst_ratio: float  # max over shifts of (shifted mass) / (kappa * mass)
    worst_shift: float | None
    witness_cell: int | None
    details: list = field(default_factory=list)


def check_shift_domination(m: DelayMeasure, t_max: float) -> ShiftDominationReport:
    """Verify the discrete inequality w_{j-k} <= kappa(k h) w_j for grid shifts up to t_max.

    Shifted mass landing on a zero-mass cell is an immediate failure witness.
    """
    k_max = min(grid_count(t_max, m.h, "t_max"), m.n_cells)
    worst = 0.0
    worst_shift = None
    witness = None
    details = []
    for k in range(1, k_max + 1):
        kap = m.kappa(k * m.h)
        ratio = _shift_ratios(m.weights, k, kap)
        j = int(np.argmax(ratio))  # the first cell of the largest ratio
        if ratio[j] > worst:
            worst, worst_shift, witness = float(ratio[j]), k * m.h, j
        details.append((k * m.h, kap))
    return ShiftDominationReport(
        passed=worst <= 1.0 + 1e-12,
        worst_ratio=worst,
        worst_shift=worst_shift,
        witness_cell=witness,
        details=details,
    )
