"""Equation data (A, b, B, Q), Dini moduli, the model catalog and assumption validators.

Coefficients are vectorized over path batches:
    b(t, x)            x: (n, d)            -> (n, d)
    B(t, avg)          avg: (n, d)          -> (n, d)
    Q(t, x)            x: (n, d)            -> (n, d, dbar)

The delay drift of every catalog model is B(xi) = beta nu(xi), so B receives
the average avg = nu(xi) of the segment, not the segment: the runners stream
these averages with measure.delay_averages, and one-off segments go through
DelayMeasure.average.  A null cell has weight 0, so the average sees only the
quotient representative.  A transformed equation has no spec of its own:
zvonkin.transformed_coefficients forms its drift and diffusion from these.

When d = dbar = 1 and Q_bounds declares the diffusion constant in the
state (dQ = 0), diffusion_at reads it once per step, at the origin, as its
entry q in a 1-D array, so that the products stay scalar (the transformed
runners carry one such q per row).  Every other diffusion is read row by row
as an (n, d, dbar) array.  noise_product and solve_qqt take both
forms.  The declaration therefore changes results: dQ = 0 must be exact, not
an upper bound, or the runners use Q at the origin for every state.

Validation is sampling-based: a pass is evidence at the sampled witnesses, not
a proof, and every report carries its sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measure import DelayMeasure, batch_seg_norm

__all__ = [
    "OperatorA",
    "DiniModulus",
    "ModelSpec",
    "BihariData",
    "semigroup_factors",
    "diffusion_at",
    "noise_product",
    "SingularDiffusionError",
    "solve_qqt",
    "log_det_qqt",
    "dini_check",
    "validate_assumptions",
    "make_model",
    "check_param",
    "make_functional",
]


@dataclass(frozen=True)
class OperatorA:
    """A = -diag(eigenvalues) in the canonical basis; all rates positive."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        # a copy in the order given: rate i belongs to axis i
        lam = np.array(self.eigenvalues, dtype=float, ndmin=1)
        if np.any(lam <= 0):
            raise ValueError("operator rates must be strictly positive")
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def d(self) -> int:
        return len(self.eigenvalues)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x = -lam * x, broadcasting over leading axes."""
        return -self.eigenvalues * x


def semigroup_factors(A, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal factors E = e^{Ah} and J = A^{-1}(e^{Ah} - I).

    Accepts an OperatorA or a raw rate array; a zero rate gets the limiting
    J entry h.  Negative rates are a domain error.
    """
    lam = A.eigenvalues if isinstance(A, OperatorA) else np.atleast_1d(np.asarray(A, dtype=float))
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    if np.any(lam < 0):
        raise ValueError("rates must be non-negative")
    E = np.exp(-lam * h)
    J = np.where(lam > 0, (1.0 - E) / np.where(lam > 0, lam, 1.0), h)
    return E, J


@dataclass(frozen=True)
class DiniModulus:
    """Modulus of continuity phi; families: power(alpha), log(c), custom table."""

    tag: str
    phi: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)

    @staticmethod
    def power(alpha: float) -> "DiniModulus":
        return DiniModulus("power", lambda s, a=alpha: np.asarray(s, dtype=float) ** a, {"alpha": alpha})

    @staticmethod
    def log(c: float = 1.0) -> "DiniModulus":
        return DiniModulus(
            "log", lambda s, cc=c: cc / np.log(np.e + 1.0 / np.asarray(s, dtype=float)), {"c": c}
        )

    @staticmethod
    def linear(slope: float) -> "DiniModulus":
        # Lipschitz modulus; valid for (A3') sampling but phi^2 is convex,
        # so it sits outside the Dini class and dini_check reports that.
        return DiniModulus("linear", lambda s, k=slope: k * np.asarray(s, dtype=float), {"slope": slope})

    def __call__(self, s):
        return self.phi(s)


@dataclass
class DiniReport:
    monotone: bool
    square_concave: bool
    dini_convergent: bool
    tail_sum: float
    partial_sum: float
    n_points: int

    @property
    def passed(self) -> bool:
        return self.monotone and self.square_concave and self.dini_convergent


def dini_check(phi: DiniModulus, s_grid: np.ndarray | None = None) -> DiniReport:
    """Check monotonicity, phi^2 midpoint concavity and the Dini integral numerically.

    The Dini integral over (0,1] is bounded above by the dyadic upper sum
    sum_k phi(2^-k) ln 2; divergence shows up as a non-stabilizing tail.
    """
    if s_grid is None:
        s_grid = 2.0 ** -np.arange(0, 40)
    s = np.sort(np.asarray(s_grid, dtype=float))
    if len(s) < 20 or s[0] <= 0 or s[-1] > 1:
        raise ValueError("need >= 20 dyadic points in (0, 1]")
    v = np.asarray(phi(s), dtype=float)
    monotone = bool(np.all(np.diff(v) >= -1e-12))
    # midpoint concavity of phi^2 over all grid pairs
    a, bb = np.meshgrid(s, s, indexing="ij")
    va, vb = np.meshgrid(v, v, indexing="ij")
    mid_vals = np.asarray(phi(0.5 * (a + bb)), dtype=float)
    square_concave = bool(np.all(mid_vals**2 >= 0.5 * (va**2 + vb**2) - 1e-10))
    k = np.arange(0, 61)
    terms = np.asarray(phi(2.0 ** -k), dtype=float) * math.log(2.0)
    partial = float(terms.sum())
    tail = float(terms[30:].sum())
    convergent = tail < 0.05 * max(partial, 1e-300)
    return DiniReport(monotone, square_concave, convergent, tail, partial, len(s))


@dataclass(frozen=True)
class BihariData:
    """Declared (Phi_t, h_t) pair of the drift one-sided growth condition."""

    Phi: Callable[[float, np.ndarray], np.ndarray]  # (t, s) -> Phi_t(s), increasing in s
    h: Callable[[float, np.ndarray], np.ndarray]  # (t, r) -> h_t(r), increasing in r
    note: str = ""


@dataclass(frozen=True)
class ModelSpec:
    name: str
    d: int
    dbar: int
    A: OperatorA
    b: Callable
    B: Callable
    Q: Callable
    phi: DiniModulus | None = None
    b_sup: float = 0.0
    B_lip_sq: float = 0.0  # C_B with |B(xi)-B(eta)|^2 <= C_B ||xi-eta||^2
    # Q, dQ, d2Q, QQt_inv.  dQ = 0 declares Q constant in the state, and in
    # d = dbar = 1 the runners then read Q once per step, at the origin
    # (diffusion_at): it must be exact, not an upper bound.
    Q_bounds: dict = field(default_factory=dict)
    bihari: BihariData | None = None
    params: dict = field(default_factory=dict)


def diffusion_at(m: ModelSpec, t: float, x: np.ndarray) -> np.ndarray:
    """m.Q at time t and rows x (n, d): the (n, d, dbar) array, or, when
    d = dbar = 1 and Q_bounds declares dQ = 0, Q read once, at the origin,
    as a 1-D array holding q."""
    if m.Q_bounds.get("dQ") != 0 or (m.d, m.dbar) != (1, 1):
        return m.Q(t, x)
    return m.Q(t, np.zeros((1, 1)))[0, 0]


def noise_product(Q: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """Q dW row by row, (n, d), for increments dW (n, dbar) and Q in a form
    of diffusion_at.  In d = dbar = 1 a 1-D q gives q dW, the bits of the
    per-row product except the sign of an exact zero, which the per-row
    einsum turns into +0."""
    if Q.ndim == 3:
        return np.einsum("ndk,nk->nd", Q, dW)
    return Q[:, None] * dW


_COND_FLOOR = 1e-12


class SingularDiffusionError(np.linalg.LinAlgError):
    """QQ* is numerically singular at a visited state."""


def solve_qqt(Q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Q*(QQ*)^{-1} rhs for rhs (n, d) and Q in a form of diffusion_at:
    per row (n, d, dbar), or in d = dbar = 1 a 1-D q, shared or per row.
    The 1-D form gives q (rhs / (q q)) and tests the floor on q q: the bits
    of the (n, 1, 1) form except the sign of an exact zero."""
    if Q.ndim == 1:
        qq = Q * Q
        if np.any(qq < _COND_FLOOR):
            raise SingularDiffusionError("QQ* below the conditioning floor")
        return Q[:, None] * (rhs / qq[:, None])
    QQt = np.einsum("nik,njk->nij", Q, Q)
    d = QQt.shape[-1]
    if d == 1:
        diag = QQt[:, 0, 0]
        if np.any(np.abs(diag) < _COND_FLOOR):
            raise SingularDiffusionError("QQ* below the conditioning floor")
        y = rhs / diag[:, None]
    else:
        ev = np.linalg.eigvalsh(QQt)
        if ev[:, 0].min() < _COND_FLOOR * max(1.0, ev[:, -1].max()):
            raise SingularDiffusionError("QQ* below the conditioning floor")
        y = np.linalg.solve(QQt, rhs[..., None])[..., 0]
    return np.einsum("ndk,nd->nk", Q, y)


def log_det_qqt(Q: np.ndarray) -> np.ndarray:
    """log det QQ* row by row, for Q in a form that solve_qqt takes; in d = 1
    the log of the one entry, the bits of either form."""
    if Q.ndim == 1:
        return np.log(Q * Q)
    QQt = np.einsum("nik,njk->nij", Q, Q)
    return np.log(QQt[:, 0, 0]) if QQt.shape[-1] == 1 else np.linalg.slogdet(QQt)[1]


# ---------------------------------------------------------------------------
# catalog

def _zero_b(t, x):
    return np.zeros_like(x)


def _zero_B(t, avg):
    return np.zeros_like(avg)


def _const_Q(sigma: float, d: int, dbar: int):
    base = np.zeros((d, dbar))
    base[: min(d, dbar), : min(d, dbar)] = sigma * np.eye(min(d, dbar))

    def Q(t, x):
        return np.broadcast_to(base, (x.shape[0], d, dbar))

    return Q


def _const_Q_bounds(sigma: float) -> dict:
    """Bounds of the diffusion sigma I; QQ* has no bounded inverse at sigma = 0."""
    return {"Q": sigma, "dQ": 0.0, "d2Q": 0.0, "QQt_inv": 1.0 / sigma**2 if sigma else np.inf}


def _nu_B(beta: float):
    def B(t, avg):
        # avg is the componentwise segment average nu(xi)
        return beta * avg

    return B


def check_param(key: str, value) -> None:
    """ValueError unless a catalog parameter can be used: d >= 1, and lam,
    beta and sigma finite.  Other keys are left to the catalog entry."""
    if key == "d" and not value >= 1:
        raise ValueError(f"need d >= 1, got {value}")
    if key in ("lam", "beta", "sigma") and not math.isfinite(float(value)):
        raise ValueError(f"need a finite {key}, got {value!r}")


def _record(name: str, params: dict, **defaults) -> dict:
    """An entry's params record: its parameters as floats, defaults filled in."""
    for key in params:
        if key not in defaults:
            raise ValueError(f"model {name!r} does not read {key}; it reads {', '.join(defaults)}")
    return {key: float(params.get(key, default)) for key, default in defaults.items()}


def _catalog_spec(name: str, d: int, params: dict, sigma: float, b, B, **fields) -> ModelSpec:
    """A catalog entry: A = lam I, the diffusion sigma I in d = dbar with its
    bounds, and the record params, around the entry's own b, B and fields."""
    return ModelSpec(name, d, d, OperatorA(np.full(d, params["lam"])), b, B, _const_Q(sigma, d, d),
                     Q_bounds=_const_Q_bounds(sigma), params=params, **fields)


def _delay_bihari(beta: float, nu: DelayMeasure, offset: float, note: str) -> BihariData:
    """(Phi, h) of the delay drift beta nu(xi), with offset added to Phi."""
    c1 = 1.5 * beta * math.sqrt(nu.total_mass()) + 0.5
    c2 = 0.5 * beta * math.sqrt(nu.total_mass()) + 0.5
    return BihariData(lambda t, s: c1 * (1.0 + np.asarray(s, dtype=float)) + offset,
                      lambda t, r: c2 * (1.0 + np.asarray(r, dtype=float) ** 2), note)


def make_model(name: str, measure: DelayMeasure | None = None, **params) -> ModelSpec:
    """Closed coefficient catalog; validators and oracles rely on the analytic forms.

    Catalog: zero, ou, reference, linear_delay, cubic, quadratic, tabulated,
    each built by _catalog_spec, the one place that assembles a ModelSpec.
    A parameter the entry does not read is a ValueError, not a silent no-op.
    """
    d = int(params.pop("d", 1))
    for key, value in [("d", d), *params.items()]:
        check_param(key, value)
    if name in ("reference", "linear_delay", "tabulated") and measure is None:
        raise ValueError(f"{name} model needs the delay measure to declare constants")
    if name == "zero":
        return _catalog_spec("zero", d, _record(name, params, lam=1.0), 0.0, _zero_b, _zero_B)
    if name == "ou":
        p = _record(name, params, lam=1.0, sigma=1.0)
        return _catalog_spec("ou", d, p, p["sigma"], _zero_b, _zero_B,
                             phi=DiniModulus.power(0.5), b_sup=0.0)
    if name == "reference":
        p = _record(name, params, lam=1.0, beta=0.5, sigma=1.0)

        def b(t, x):
            return np.sqrt(np.minimum(np.abs(x), 1.0))

        note = "Cauchy-Schwarz on the nu-average plus Young on the cross terms"
        return _catalog_spec("reference", d, p, p["sigma"], b, _nu_B(p["beta"]),
                             phi=DiniModulus.power(0.5), b_sup=1.0,
                             B_lip_sq=p["beta"] ** 2 * measure.total_mass(),
                             bihari=_delay_bihari(p["beta"], measure, 0.5, note))
    if name == "linear_delay":
        p = _record(name, params, lam=1.0, beta=0.5, sigma=1.0)
        note = "linear delay drift; Phi has linear growth so the Bihari integral diverges"
        return _catalog_spec("linear_delay", d, p, p["sigma"], _zero_b, _nu_B(p["beta"]),
                             phi=DiniModulus.power(0.5), b_sup=0.0,
                             B_lip_sq=p["beta"] ** 2 * measure.total_mass(),
                             bihari=_delay_bihari(p["beta"], measure, 0.0, note))
    if name == "cubic":
        # explosive stress entry for lifetime detection

        def b(t, x):
            return x**3

        return _catalog_spec("cubic", d, _record(name, params, lam=1.0), 0.0, b, _zero_B)
    if name == "quadratic":
        # deliberately violates (A3') against a sqrt modulus; validator test entry

        def b(t, x):
            return x**2

        return _catalog_spec("quadratic", d, _record(name, params, lam=1.0), 1.0, b, _zero_B,
                             phi=DiniModulus.power(0.5), b_sup=np.inf)
    if name == "tabulated":
        if "xs" not in params or "ys" not in params:
            raise ValueError("tabulated drift needs xs and ys tables")
        xs = np.asarray(params.pop("xs"), dtype=float)
        ys = np.asarray(params.pop("ys"), dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("tabulated drift needs matching 1-d xs/ys tables")
        if d != 1:
            raise ValueError("tabulated drift supports d=1")
        p = _record(name, params, lam=1.0, beta=0.0, sigma=1.0)

        def b(t, x, _xs=xs, _ys=ys):
            return np.interp(x, _xs, _ys)

        slope = float(np.max(np.abs(np.diff(ys) / np.diff(xs)))) if len(xs) > 1 else 0.0
        return _catalog_spec("tabulated", 1, p, p["sigma"], b, _nu_B(p["beta"]),
                             phi=DiniModulus.linear(slope), b_sup=float(np.max(np.abs(ys))),
                             B_lip_sq=p["beta"] ** 2 * measure.total_mass())
    raise ValueError(f"unknown model {name!r}")


# ---------------------------------------------------------------------------
# assumption validators

@dataclass
class AssumptionCheck:
    passed: bool
    worst: float  # worst observed ratio (<= 1 means pass)
    witness: tuple | None


@dataclass
class AssumptionReport:
    a2: AssumptionCheck  # Q bounds, derivative bounds, invertibility of QQ*
    a3: AssumptionCheck  # Dini bound on b
    a4: AssumptionCheck  # segment-Lipschitz bound on B
    n_samples: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.a2.passed and self.a3.passed and self.a4.passed


def validate_assumptions(
    m: ModelSpec,
    nu: DelayMeasure,
    T: float,
    n_samples: int = 1000,
    box: float = 5.0,
    seg_amp: float = 2.0,
    tol: float = 1e-3,
    seed: int = 0,
) -> AssumptionReport:
    """Monte Carlo spot checks of (A2')-(A4') against the declared constants.

    (A2') needs QQ* invertible, so a declared QQt_inv bound of inf (a zero
    diffusion) fails it outright, with worst inf."""
    if n_samples < 1000:
        raise ValueError("need n_samples >= 1000")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, T, 8)
    n0 = nu.n_cells

    # (A2'): finite-difference dQ, d2Q against declared bounds; QQ* invertibility.
    worst_a2, wit_a2 = 0.0, None
    x = rng.uniform(-box, box, (n_samples, m.d))
    for t in ts:
        Q = m.Q(t, x)
        bound_Q = m.Q_bounds.get("Q", np.inf)
        r = np.linalg.norm(Q, ord=2, axis=(1, 2)).max() / (bound_Q + tol) if bound_Q < np.inf else 0.0
        if r > worst_a2:
            worst_a2, wit_a2 = float(r), ("|Q|", float(t))
        eps = 1e-5 * (1.0 + np.abs(x))
        for k in range(m.d):
            dx = np.zeros_like(x)
            dx[:, k] = eps[:, k]
            Qp, Qm = m.Q(t, x + dx), m.Q(t, x - dx)
            dQ = (Qp - Qm) / (2 * eps[:, k, None, None])
            d2Q = (Qp - 2 * Q + Qm) / (eps[:, k, None, None] ** 2)
            for tensor, key in ((dQ, "dQ"), (d2Q, "d2Q")):
                bound = m.Q_bounds.get(key, np.inf)
                if bound < np.inf:
                    val = np.linalg.norm(tensor, ord=2, axis=(1, 2)).max()
                    r = val / (bound + 10 * tol + 1e-7)
                    if r > worst_a2:
                        worst_a2, wit_a2 = float(r), (key, float(t))
        bound_inv = m.Q_bounds.get("QQt_inv", np.inf)
        if bound_inv < np.inf:
            QQt = np.einsum("nik,njk->nij", Q, Q)
            smin = np.linalg.svd(QQt, compute_uv=False)[:, -1].min()
            r = (1.0 / bound_inv) / max(smin, 1e-300) / (1.0 + tol)
            if r > worst_a2:
                worst_a2, wit_a2 = float(r), ("QQt_inv", float(t))
    if m.Q_bounds.get("QQt_inv") == math.inf:  # declared singular: QQ* has no bounded inverse
        worst_a2, wit_a2 = math.inf, ("QQt_inv", None)
    a2 = AssumptionCheck(worst_a2 <= 1.0, worst_a2, wit_a2)

    # (A3'): |b(t,x)-b(t,y)| <= phi(|x-y|) (1+tol)
    worst_a3, wit_a3 = 0.0, None
    if m.phi is not None:
        xs = rng.uniform(-box, box, (n_samples, m.d))
        ys = rng.uniform(-box, box, (n_samples, m.d))
        near = xs + rng.normal(0, 0.05, xs.shape)  # also probe small separations
        for t in ts:
            for yy in (ys, near):
                num = np.linalg.norm(m.b(t, xs) - m.b(t, yy), axis=1)
                den = np.asarray(m.phi(np.linalg.norm(xs - yy, axis=1)), dtype=float) * (1 + tol)
                ratio = num / np.where(den > 0, den, 1e-300)
                i = int(np.argmax(ratio))
                if ratio[i] > worst_a3:
                    worst_a3, wit_a3 = float(ratio[i]), (float(t), xs[i].copy(), yy[i].copy())
    a3 = AssumptionCheck(worst_a3 <= 1.0, worst_a3, wit_a3)

    # (A4'): |B(t,xi)-B(t,eta)| <= sqrt(C_B) ||xi-eta|| (1+tol)
    worst_a4, wit_a4 = 0.0, None
    # a null cell has weight 0 in both the average and the norm
    segs = seg_amp * rng.standard_normal((n_samples, n0 + 1, m.d))
    etas = seg_amp * rng.standard_normal((n_samples, n0 + 1, m.d))
    sqrt_cb = math.sqrt(m.B_lip_sq) if m.B_lip_sq > 0 else 0.0
    avg_segs, avg_etas = nu.average(segs), nu.average(etas)
    for t in ts:
        num = np.linalg.norm(m.B(t, avg_segs) - m.B(t, avg_etas), axis=1)
        if sqrt_cb == 0.0:
            r = float(num.max())
            if r > worst_a4:
                worst_a4, wit_a4 = r, (float(t),)
            continue
        den = sqrt_cb * batch_seg_norm(nu, segs - etas) * (1 + tol)
        ratio = num / np.where(den > 0, den, 1e-300)
        i = int(np.argmax(ratio))
        if ratio[i] > worst_a4:
            worst_a4, wit_a4 = float(ratio[i]), (float(t), i)
    a4 = AssumptionCheck(worst_a4 <= 1.0, worst_a4, wit_a4)

    return AssumptionReport(a2, a3, a4, n_samples, tol)


# ---------------------------------------------------------------------------
# segment functional catalog (test functions f for the semigroup)

def make_functional(name: str, m: DelayMeasure | None = None, eps: float = 1e-6, c: float = 1.0):
    """Bounded measurable functionals on C_nu; *_pos variants are strictly positive.

    Returns (f, strictly_positive) with f acting on batched segment values
    (n, n0+1, d) -> (n,).
    """
    if name == "tanh0":
        return (lambda seg: np.tanh(seg[:, -1, :].sum(axis=1))), False
    if name == "tanh0_pos":
        return (lambda seg: eps + np.tanh(seg[:, -1, :].sum(axis=1)) ** 2), True
    if name == "boxind_pos":
        return (lambda seg: eps + (np.linalg.norm(seg[:, -1, :], axis=1) <= c).astype(float)), True
    if name == "expnorm_pos":
        if m is None:
            raise ValueError("expnorm_pos needs the delay measure")
        return (lambda seg: eps + np.exp(-batch_seg_norm(m, seg) ** 2)), True
    if name == "coord0":
        return (lambda seg: seg[:, -1, 0]), False
    if name == "coord0_sq":
        return (lambda seg: seg[:, -1, 0] ** 2), False
    if name == "const":
        return (lambda seg: np.full(seg.shape[0], c)), c > 0
    raise ValueError(f"unknown functional {name!r}")
