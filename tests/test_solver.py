import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from delaysde import rng
from delaysde import bihari
from delaysde.bihari import BoundExceedsCapError, apriori_check, bihari_bound, psi_inverse
from delaysde.measure import (
    GridMismatchError,
    Rows,
    Segment,
    batch_seg_norm,
    constant_segment,
    delay_averages,
    make_measure,
    streamed_seg_norms,
)
from delaysde.model import diffusion_at, make_model, noise_product, semigroup_factors
from delaysde.rng import batch_increments
from delaysde.solver import R_EXPLODE, SolverConfig, cutoff_psi, simulate
from helpers import coarsen_increments


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(h=0.1, t_end=1.0, scheme="milstein")
    with pytest.raises(ValueError):
        SolverConfig(h=-0.1, t_end=1.0)
    for level in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(h=0.1, t_end=1.0, trunc_level=level)
    with pytest.raises(GridMismatchError):
        SolverConfig(h=0.3, t_end=1.0)


def test_cutoff_profile():
    r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 5.0])
    v = cutoff_psi(r)
    np.testing.assert_allclose(v[[0, 1, 2]], 1.0)
    assert abs(v[3] - 0.5) < 1e-15
    np.testing.assert_allclose(v[[4, 5]], 0.0)
    fine = cutoff_psi(np.linspace(0.0, 3.0, 3001))
    assert np.all(np.diff(fine) <= 1e-12)
    # C^2 join: first and second finite differences vanish at both knees
    eps = 1e-4
    for knee in (1.0, 2.0):
        d1 = (cutoff_psi(knee + eps) - cutoff_psi(knee - eps)) / (2 * eps)
        d2 = (cutoff_psi(knee + eps) - 2 * cutoff_psi(knee) + cutoff_psi(knee - eps)) / eps**2
        assert abs(d1) < 1e-3
        assert abs(d2) < 0.1


def test_zero_model_exact_decay():
    """No drift, no noise: the exponential scheme reproduces e^{-lam t} x0 exactly."""
    nu = make_measure("uniform", 0.5, 0.125)
    m = make_model("zero", lam=2.0)
    xi = constant_segment(nu, 1.0)
    batch = simulate(m, nu, xi, SolverConfig(h=0.125, t_end=1.0), 0, 1)
    ts = 0.125 * np.arange(9)
    np.testing.assert_allclose(batch.states[0, 4:, 0], np.exp(-2.0 * ts), rtol=1e-12)
    assert np.isnan(batch.lifetimes[0])
    assert batch.t_min + batch.h * (batch.states.shape[1] - 1) == 1.0


def test_ou_terminal_moments():
    nu = make_measure("uniform", 0.5, 2.0**-6)
    m = make_model("ou", lam=1.0, sigma=1.0)
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=2.0**-6, t_end=1.0)
    batch = simulate(m, nu, xi, cfg, 7, 8000)
    x = batch.states[:, -1, 0]
    mean_t = math.exp(-1.0)
    var_t = (1.0 - math.exp(-2.0)) / 2.0
    assert abs(x.mean() - mean_t) <= 3.5 * math.sqrt(var_t / 8000)
    assert abs(x.var() / var_t - 1.0) <= 3.5 * math.sqrt(2.0 / 8000)


def test_explicit_noise_reproduces_default():
    nu = make_measure("uniform", 0.5, 0.125)
    m = make_model("ou")
    xi = constant_segment(nu, 0.0)
    cfg = SolverConfig(h=0.125, t_end=0.5)
    dw = batch_increments(5, 0, 3, 4, 1, 0.125)
    a = simulate(m, nu, xi, cfg, 5, 3)
    b = simulate(m, nu, xi, cfg, 5, 3, dW=dw)
    np.testing.assert_array_equal(a.states, b.states)
    with pytest.raises(ValueError):
        simulate(m, nu, xi, cfg, 5, 3, dW=dw[:, :2])


def test_simulate_stores_paths_time_major():
    """states and dW are transposed views of time-major buffers, so each
    step reads and writes one contiguous row; a caller's path-major dW gives
    the same bits."""
    nu = make_measure("exponential", 0.5, 2.0**-5, lam=1.0)
    m = make_model("reference", measure=nu)
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=2.0**-5, t_end=0.5)
    batch = simulate(m, nu, xi, cfg, 5, 7)
    assert batch.states.shape == (7, nu.n_cells + 17, 1)
    assert batch.states.transpose(1, 0, 2).flags.c_contiguous
    assert batch.dW.transpose(1, 0, 2).flags.c_contiguous
    again = simulate(m, nu, xi, cfg, 5, 7, dW=np.ascontiguousarray(batch.dW))
    np.testing.assert_array_equal(again.states, batch.states)


def test_single_path_is_batch_member():
    """Paths are keyed by (base_seed, index): a one-path run at index 3
    reproduces that member of a batch starting at index 2."""
    nu = make_measure("uniform", 0.5, 0.125)
    m = make_model("ou")
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=0.125, t_end=0.5)
    batch = simulate(m, nu, xi, cfg, 9, 4, path_offset=2)
    single = simulate(m, nu, xi, cfg, 9, 1, path_offset=3)
    np.testing.assert_array_equal(single.states[0], batch.states[1])
    assert (single.base_seed, single.path_offset) == (9, 3)


@pytest.mark.parametrize("offset", [255, 256, 511])
def test_paths_are_batch_members_across_tiles(offset):
    """With delay drift, a single path and batches of 3 and 300 reproduce
    their members of a wider batch bit for bit, on either side of a tile edge."""
    nu = make_measure("exponential", 0.5, 2.0**-6, lam=1.0)
    m = make_model("reference", measure=nu)
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=2.0**-6, t_end=1.0)
    wide = simulate(m, nu, xi, cfg, 9, 600, path_offset=250)
    for count in (1, 3, 300):
        sub = simulate(m, nu, xi, cfg, 9, count, path_offset=offset)
        np.testing.assert_array_equal(sub.states, wide.states[offset - 250 : offset - 250 + count])


def test_schemes_agree_to_first_order():
    nu = make_measure("uniform", 0.5, 2.0**-8)
    m = make_model("ou", lam=1.0)
    xi = constant_segment(nu, 1.0)
    a = simulate(m, nu, xi, SolverConfig(h=2.0**-8, t_end=1.0), 1, 1)
    b = simulate(m, nu, xi, SolverConfig(h=2.0**-8, t_end=1.0, scheme="euler-maruyama"), 1, 1)
    assert np.max(np.abs(a.states - b.states)) < 0.05


def test_strong_error_shrinks_under_refinement():
    nu_f = make_measure("exponential", 1.0, 2.0**-9, lam=1.0)
    m = make_model("linear_delay", measure=nu_f)
    xi_f = constant_segment(nu_f, 1.0)
    dw = batch_increments(11, 0, 32, 512, 1, 2.0**-9)
    ref = simulate(m, nu_f, xi_f, SolverConfig(h=2.0**-9, t_end=1.0), 11, 32, dW=dw)
    errs = []
    for k in (2, 4):
        h = 2.0**-9 * k
        nu = make_measure("exponential", 1.0, h, lam=1.0)
        xi = constant_segment(nu, 1.0)
        batch = simulate(m, nu, xi, SolverConfig(h=h, t_end=1.0), 11, 32,
                         dW=coarsen_increments(dw, k))
        errs.append(float(np.abs(batch.states[:, -1] - ref.states[:, -1]).mean()))
    assert errs[1] > errs[0] > 0.0


def test_cubic_explosion_recorded_not_raised():
    nu = make_measure("uniform", 0.5, 2.0**-6)
    m = make_model("cubic")
    xi = constant_segment(nu, 3.0)
    cfg = SolverConfig(h=2.0**-6, t_end=2.0)
    batch = simulate(m, nu, xi, cfg, 0, 2)
    assert np.all(~np.isnan(batch.lifetimes))
    assert np.all(batch.lifetimes <= 2.0)
    # frozen after death: states stay finite
    assert np.all(np.isfinite(batch.states))


def _members_run_alone(m, nu, xi, cfg, dW):
    """The batch of dW's paths, after checking that each path run alone has
    its states and lifetime."""
    batch = simulate(m, nu, xi, cfg, 0, len(dW), dW=dW)
    for i in range(len(dW)):
        alone = simulate(m, nu, xi, cfg, 0, 1, path_offset=i, dW=dW[i : i + 1])
        np.testing.assert_array_equal(alone.states[0], batch.states[i])
        np.testing.assert_array_equal(alone.lifetimes[0], batch.lifetimes[i])
    return batch


def test_paths_that_die_mid_run_keep_their_lone_states():
    """Kicks end some paths mid-run: by a finite jump past R_EXPLODE, by
    the cubic drift of a large state, by an inf and by a NaN increment.
    Each path, the survivors included, has the states and lifetime of its
    lone run, in which a healthy path never takes the full check."""
    nu = make_measure("uniform", 0.25, 2.0**-6)
    ou = make_model("ou")
    m = dataclasses.replace(make_model("cubic"), Q=ou.Q, Q_bounds=ou.Q_bounds)
    cfg = SolverConfig(h=2.0**-6, t_end=0.5)
    dW = 0.1 * batch_increments(3, 0, 6, 32, 1, cfg.h)
    dW[1, 4] = 2e6
    dW[2, 5] = 1e4
    dW[3, 10] = np.inf
    dW[4, 12] = np.nan
    batch = _members_run_alone(m, nu, constant_segment(nu, 0.2), cfg, dW)
    h, n0 = cfg.h, nu.n_cells
    np.testing.assert_array_equal(batch.lifetimes, [np.nan, 5 * h, 7 * h, 11 * h, 13 * h, np.nan])
    assert np.all(np.isfinite(batch.states))
    assert batch.states[1, n0 + 5, 0] >= 1e6  # the exit step is written, then frozen
    for i, k in ((1, 5), (2, 7), (3, 10), (4, 12)):
        assert np.all(batch.states[i, n0 + k :] == batch.states[i, n0 + k])
    assert np.all(np.abs(batch.states[[0, 5]]) < 10.0)


def test_rows_at_the_explosion_radius():
    """From x = 0 an Euler-Maruyama step of the OU model lands on dW: a row at
    R_EXPLODE ends its path, a row just below it does not, and rows on
    either side of R_EXPLODE / 2 (where the one-reduction check hands over
    to the full one) run on."""
    nu = make_measure("uniform", 0.25, 2.0**-6)
    cfg = SolverConfig(h=2.0**-6, t_end=0.25, scheme="euler-maruyama")
    first = [R_EXPLODE, np.nextafter(R_EXPLODE, 0.0), R_EXPLODE / 2, np.nextafter(R_EXPLODE / 2, 0.0), 0.3]
    dW = np.zeros((len(first), 16, 1))
    dW[:, 0, 0] = first
    batch = _members_run_alone(make_model("ou"), nu, constant_segment(nu, 0.0), cfg, dW)
    np.testing.assert_array_equal(batch.lifetimes, [cfg.h] + [np.nan] * 4)
    np.testing.assert_array_equal(batch.states[:, nu.n_cells + 1, 0], first)
    assert np.all(batch.states[0, nu.n_cells + 1 :, 0] == R_EXPLODE)
    assert np.all(batch.states[1:, -1, 0] < first[1:])


def test_truncation_exit_by_segment_norm():
    nu = make_measure("uniform", 0.5, 2.0**-6)
    m = make_model("ou", lam=1.0, sigma=0.0)
    xi = constant_segment(nu, 10.0)
    cfg = SolverConfig(h=2.0**-6, t_end=1.0, trunc_level=5.0)
    batch = simulate(m, nu, xi, cfg, 0, 1)
    # initial segment norm > 5 already; first step exits
    assert batch.lifetimes[0] == cfg.h


def _check_truncated_steps(m, nu, batch, cfg):
    """Each row of a stored truncated batch, and each lifetime, from the
    rows before it by the truncated step written out: b(t, x) psi(|x|/L),
    Q at x psi(|x|/L), B psi(||x_t||/L), and an end at the first window
    whose norm reaches L.  The averages and window norms are streamed from
    the stored rows, which gives simulate's bits."""
    L, h = cfg.trunc_level, cfg.h
    n0, steps = nu.n0(h), batch.dW.shape[1]
    states = batch.states
    sq = np.zeros((batch.n_paths, states.shape[1] + 1, 1))
    sq[:, :-1, 0] = np.sum(states**2, axis=2)
    norms = streamed_seg_norms(nu, Rows.stored(sq), batch.path_offset)
    averages = delay_averages(nu, Rows.stored(states), batch.path_offset)
    E, J = semigroup_factors(m.A, h)
    inv = 1.0 / L
    seg_n = next(norms)
    alive = np.ones(batch.n_paths, dtype=bool)
    lifetimes = np.full(batch.n_paths, np.nan)
    for k in range(steps):
        t, x = k * h, states[:, n0 + k]
        fac = cutoff_psi(inv * np.linalg.norm(x, axis=-1))
        b_cut = m.b(t, x) * fac[..., None]
        noise = noise_product(diffusion_at(m, t, x * fac[..., None]), batch.dW[:, k])
        B_cut = m.B(t, next(averages)) * cutoff_psi(inv * seg_n)[:, None]
        xn = E * x + J * (b_cut + B_cut) + E * noise
        np.testing.assert_array_equal(states[:, n0 + k + 1], np.where(alive[:, None], xn, x))
        seg_n = next(norms)
        newly = alive & (seg_n >= L)
        lifetimes[newly] = t + h
        alive &= ~newly
    np.testing.assert_array_equal(batch.lifetimes, lifetimes)


def _state_Q(t, x):
    # sigma(x) I with sigma(x) = 3 + 1.5 tanh(x_1 + x_2): no dQ = 0
    return (3.0 + 1.5 * np.tanh(np.sum(x, axis=1)))[:, None, None] * np.eye(2)


@pytest.mark.parametrize("case", ["d1-fractional", "d1-beyond-2L", "d2-state-Q"])
def test_truncated_step_cuts_b_and_Q_off(case):
    """The truncated step, written out in _check_truncated_steps, holds bit
    for bit on every row and lifetime of a run whose initial state lies
    outside the ball: |x(0)| = 1.5 in (L, 2L) gives fractional b and Q
    cut-offs, and |x(0)| = 2.5 >= 2L cuts b off entirely.  The restoring
    rate lam = 16 brings most paths back inside at step 0, and a diffusion
    near 3 ends some of them then or later."""
    h = 2.0**-4
    nu = make_measure("exponential", 0.5, h, lam=1.0)
    if case == "d2-state-Q":
        m = dataclasses.replace(make_model("reference", measure=nu, d=2, lam=16.0),
                                Q=_state_Q, Q_bounds={"Q": 4.5})
        x0 = [1.2, 0.9]
    else:
        m = make_model("reference", measure=nu, lam=16.0, sigma=3.0)
        x0 = [2.5 if case == "d1-beyond-2L" else 1.5]
    vals = np.full((nu.n_cells + 1, m.d), 0.1)
    vals[-1] = x0
    cfg = SolverConfig(h=h, t_end=1.0, trunc_level=1.0)
    batch = simulate(m, nu, Segment(vals), cfg, 7, 200, path_offset=5)
    _check_truncated_steps(m, nu, batch, cfg)
    assert 0 < np.isnan(batch.lifetimes).sum() < batch.n_paths
    assert cutoff_psi(np.linalg.norm(x0)) < 1.0


def test_truncated_run_cuts_B_off_at_step_0():
    """An initial segment outside the truncation ball (norm 1.27 > 1) gets a
    partial B cut-off at step 0, from the initial segment's norm; the paths
    then move inside and run on.  Values pinned from the per-step solver."""
    nu = make_measure("uniform", 0.5, 2.0**-4)
    m = make_model("linear_delay", measure=nu)
    vals = np.full(nu.n_cells + 1, 0.2)
    vals[0] = 5.0
    cfg = SolverConfig(h=2.0**-4, t_end=0.5, trunc_level=1.0)
    batch = simulate(m, nu, Segment(vals), cfg, 0, 3)
    free = simulate(m, nu, Segment(vals), SolverConfig(h=2.0**-4, t_end=0.5), 0, 3)
    step1 = [-0.33512253686039595, 0.40753239975315725, 0.40847868797051157]
    final = [0.2328377546485193, 0.686044153163658, -0.2016134159382263]
    np.testing.assert_allclose(batch.states[:, 9, 0], step1, rtol=1e-12)
    np.testing.assert_allclose(batch.states[:, -1, 0], final, rtol=1e-12)
    assert np.all(np.isnan(batch.lifetimes))
    # the cut-off is what moves step 1
    np.testing.assert_allclose(free.states[:, 9, 0] - batch.states[:, 9, 0], 1.5631253266e-3, rtol=1e-9)


def test_truncated_norms_clamped_at_zero():
    """A spike of 1e4 leaving the window makes the sliding average of |x|^2
    subtract 1e8 from itself; its rounding may not end a path (sigma = 0,
    norms near 1e-6, far inside the level), so the run equals the untruncated
    one."""
    h = 2.0**-6
    nu = make_measure("exponential", 0.5, h, lam=1.0)
    m = make_model("ou", sigma=0.0)
    vals = np.full(nu.n_cells + 1, 1e-6)
    vals[:5] = 1e4
    cut = simulate(m, nu, Segment(vals), SolverConfig(h=h, t_end=0.5, trunc_level=1e9), 0, 2)
    free = simulate(m, nu, Segment(vals), SolverConfig(h=h, t_end=0.5), 0, 2)
    assert np.all(np.isnan(cut.lifetimes))
    np.testing.assert_array_equal(cut.states, free.states)


@pytest.mark.parametrize("kind", ["exponential", "atoms"])
def test_truncation_exits_at_first_window_over_level(kind):
    """The streamed norms end each path after the first step whose window,
    re-normed whole from the stored states, reaches the level."""
    h = 2.0**-5
    if kind == "atoms":
        nu = make_measure("atoms", 0.5, h, weights=np.full(16, 0.1))
    else:
        nu = make_measure("exponential", 0.5, h, lam=1.0)
    m = make_model("linear_delay", measure=nu)
    level = 2.0 if kind == "atoms" else 1.5
    batch = simulate(m, nu, constant_segment(nu, 0.7), SolverConfig(h=h, t_end=1.0, trunc_level=level), 3, 300)
    n0, steps = nu.n_cells, 32
    norms = np.stack(
        [batch_seg_norm(nu, batch.states[:, k : k + n0 + 1]) for k in range(1, steps + 1)], axis=1
    )
    hit = norms >= level
    want = np.where(hit.any(axis=1), (hit.argmax(axis=1) + 1) * h, np.nan)
    assert 0 < np.isnan(want).sum() < len(want)
    np.testing.assert_array_equal(batch.lifetimes, want)


def test_bihari_bound_closed_form():
    """Phi(s) = c (1 + s) admits the analytic inverse; c = 1/2, alpha = 0, T = 1."""
    bound = bihari_bound(lambda s: 0.5 * (1.0 + s), 0.0, 1.0, 0.0, 1.0)
    assert abs(bound - (2.0 * math.e - 1.0)) <= 1e-8


def test_bihari_bound_general_exponent():
    # Psi(s) = ln((1+K1+K2 s)/(1+K1+K2)) / (2 c K2) for Phi = c(1+s)
    c, K1, K2, alpha, T = 0.7, 2.0, 3.0, 1.5, 0.5
    want = ((1 + K1 + K2) * math.exp(2 * c * K2 * (alpha + T)) - 1 - K1) / K2
    got = bihari_bound(lambda s: c * (1.0 + s), K1, K2, alpha, T)
    assert abs(got - want) <= 1e-7 * want


def test_bihari_rejects_fast_growth():
    with pytest.raises(ValueError):
        bihari_bound(lambda s: (1.0 + s) ** 2, 0.0, 1.0, 0.0, 1.0)


def test_bihari_domain_errors():
    with pytest.raises(ValueError):
        bihari_bound(lambda s: 1.0 + s, -1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        bihari_bound(lambda s: 1.0 + s, 0.0, 1.0, math.inf, 1.0)
    with pytest.raises(BoundExceedsCapError):
        bihari_bound(lambda s: 1.0 + s, 0.0, 1.0, 1e4, 1.0, s_max=1e6)


def test_apriori_check_linear_delay():
    nu = make_measure("exponential", 1.0, 2.0**-7, lam=1.0)
    m = make_model("linear_delay", measure=nu)
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=2.0**-7, t_end=1.0)
    rep = apriori_check(m, nu, xi, cfg, 1.0, 200, 5)
    assert rep.passed
    assert rep.worst_margin <= 1.0
    assert rep.K2 == pytest.approx(1.0 + nu.total_mass(window=1.0))
    assert rep.K1 == pytest.approx(nu.kappa(1.0) * (nu.total_mass() + 1.0))


def test_apriori_needs_growth_data():
    nu = make_measure("uniform", 0.5, 0.125)
    m = make_model("zero")
    xi = constant_segment(nu, 1.0)
    with pytest.raises(ValueError):
        apriori_check(m, nu, xi, SolverConfig(h=0.125, t_end=0.5), 0.5, 10, 0)


def test_apriori_horizon_within_batch():
    nu = make_measure("uniform", 0.5, 0.125)
    m = make_model("linear_delay", measure=nu)
    xi = constant_segment(nu, 1.0)
    with pytest.raises(ValueError, match="exceeds"):
        apriori_check(m, nu, xi, SolverConfig(h=0.125, t_end=0.5), 1.0, 10, 0)


@pytest.mark.parametrize("name", ["linear_delay", "reference"])
def test_psi_grid_inverse_matches_the_quadrature_bound(name):
    """The shared grid of apriori_check inverts Psi_T to within 1e-3 of
    bihari_bound, and never above it."""
    h, T = 2.0**-8, 1.0
    nu = make_measure("exponential", 1.0, h, lam=1.0)
    m = make_model(name, measure=nu)
    K1 = nu.kappa(T) * (nu.total_mass() + 1.0)  # the constant segment at 1
    K2 = 1.0 + nu.total_mass(window=T)
    alphas = np.arange(1.0, 6.0)
    grid = psi_inverse(lambda s: m.bihari.Phi(T, s), K1, K2, alphas + T)
    for alpha, got in zip(alphas, grid):
        want = bihari_bound(lambda s: float(m.bihari.Phi(T, s)), K1, K2, alpha, T)
        assert want * (1.0 - 1e-3) <= got <= want


@pytest.mark.parametrize("kind", ["exponential", "atoms"])
def test_apriori_chunks_give_the_one_chunk_report(monkeypatch, kind):
    """apriori_check joins per-path columns and builds one Psi grid over
    every target, so each field of its report, bounds included, has the bits
    of a one-chunk run.  The atoms measure takes the blocked averages."""
    h = 2.0**-5
    if kind == "atoms":
        nu = make_measure("atoms", 0.5, h, weights=[0.03, 0.01, 0.02, 0.04] * 4)
    else:
        nu = make_measure(kind, 0.5, h, lam=1.0)
    m = make_model("reference", measure=nu)
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=h, t_end=1.0)
    whole = apriori_check(m, nu, xi, cfg, 0.75, 300, 4)
    monkeypatch.setattr(rng, "STORED_ROW_CHUNK", 37)
    chunked = apriori_check(m, nu, xi, cfg, 0.75, 300, 4)
    for name in whole.__dataclass_fields__:
        np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name), err_msg=name)


def test_apriori_check_holds_a_ring_of_xbar_rows():
    """apriori_check keeps its |Xbar|^2 rows in a ring of n0 + 2 slots: numpy
    reports its buffers to tracemalloc, and one chunk's peak stays within
    1.25 x (states + dW + ring bytes), below the states, dW and n0 + steps
    + 1 |Xbar|^2 rows that storing every row would take.  worst_margin has
    the bits that every stored |Xbar|^2 row gives."""
    h, n = 2.0**-6, 2048
    nu = make_measure("uniform", 0.25, h)
    m = make_model("reference", measure=nu)
    xi = constant_segment(nu, 0.5)
    cfg = SolverConfig(h=h, t_end=1.0)
    n0, steps = nu.n_cells, 64
    assert n <= rng.STORED_ROW_CHUNK  # one chunk
    states, dW = 8 * n * (n0 + steps + 1) * m.d, 8 * n * steps * m.dbar
    bound = 1.25 * (states + dW + 8 * n * (n0 + 2))
    assert states + dW + 8 * n * (n0 + steps + 1) > bound
    apriori_check(m, nu, xi, cfg, 1.0, 4, 1)  # the imports of the first call are not traced
    tracemalloc.start()
    try:
        rep = apriori_check(m, nu, xi, cfg, 1.0, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)
    assert rep.pass_fraction == 1.0
    assert rep.worst_margin == 0.0009981158675902882


def test_segment_views_consistent():
    nu = make_measure("uniform", 0.5, 0.125)
    m = make_model("ou")
    xi = constant_segment(nu, 1.0)
    batch = simulate(m, nu, xi, SolverConfig(h=0.125, t_end=0.5), 0, 2)
    np.testing.assert_array_equal(batch.terminal_segments(), batch.segment_values(0.5))
    with pytest.raises(ValueError):
        batch.segment_values(0.75)
    seg0 = batch.segment_values(0.0)
    np.testing.assert_array_equal(seg0[0], xi.values)


def test_ring_batch_refuses_a_window_it_no_longer_holds():
    """keep_path=False keeps the last n0 + 2 rows: the windows inside them
    are those of the stored batch, and an earlier one is refused."""
    nu = make_measure("uniform", 0.5, 0.125)
    m = make_model("linear_delay", measure=nu)
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=0.125, t_end=1.0)
    stored = simulate(m, nu, xi, cfg, 4, 3)
    ring = simulate(m, nu, xi, cfg, 4, 3, keep_path=False)
    assert ring.states.shape == (3, nu.n_cells + 2, 1)
    np.testing.assert_array_equal(ring.states, stored.states[:, -nu.n_cells - 2 :])
    np.testing.assert_array_equal(ring.terminal_segments(), stored.terminal_segments())
    for t in (0.875, 1.0):
        np.testing.assert_array_equal(ring.segment_values(t), stored.segment_values(t))
    with pytest.raises(ValueError, match="last 6 rows"):
        ring.segment_values(0.75)
    with pytest.raises(ValueError, match="not covered"):
        ring.segment_values(1.125)


def _four_measures(h):
    """Exponential lam = 1 and uniform (sliding averages), atoms with empty
    cells and exponential lam = -2 (blocked averages), all with r0 = 0.5."""
    w = np.zeros(16)
    w[[1, 4, 9, 15]] = [0.05, 0.2, 0.1, 0.15]
    return {
        "exponential": make_measure("exponential", 0.5, h, lam=1.0),
        "uniform": make_measure("uniform", 0.5, h),
        "atoms": make_measure("atoms", 0.5, h, weights=w),
        "exponential-2": make_measure("exponential", 0.5, h, lam=-2.0),
    }


@pytest.mark.parametrize("kind", ["exponential", "uniform", "atoms", "exponential-2"])
def test_truncated_ring_keeps_the_bits_and_exits_of_the_stored_batch(kind):
    """A truncated run streams its window norms from |x|^2 rows in a ring
    of n0 + 2 slots; its lifetimes are those of the first window, re-normed
    whole from the stored states, that reaches the level, and a ring batch
    ends in the stored batch's rows.  The 300 paths start off the PATH_TILE
    grid."""
    h = 2.0**-5
    nu = _four_measures(h)[kind]
    m = make_model("linear_delay", measure=nu, beta=2.0)
    cfg = SolverConfig(h=h, t_end=1.0, trunc_level=1.4)
    xi = constant_segment(nu, 0.7)
    stored = simulate(m, nu, xi, cfg, 3, 300, path_offset=37)
    ring = simulate(m, nu, xi, cfg, 3, 300, path_offset=37, keep_path=False)
    n0 = nu.n_cells
    norms = np.stack(
        [batch_seg_norm(nu, stored.states[:, k : k + n0 + 1]) for k in range(1, 33)], axis=1
    )
    hit = norms >= cfg.trunc_level
    want = np.where(hit.any(axis=1), (hit.argmax(axis=1) + 1) * h, np.nan)
    assert 0 < np.isnan(want).sum() < len(want)
    np.testing.assert_array_equal(stored.lifetimes, want)
    np.testing.assert_array_equal(ring.lifetimes, want)
    np.testing.assert_array_equal(ring.states, stored.states[:, -n0 - 2 :])


def test_apriori_check_refuses_an_infinite_kappa_before_any_path(monkeypatch):
    """Shifted mass landing on an empty cell makes kappa(T), and so K1,
    infinite: a ValueError naming kappa, before a path is simulated."""
    h = 2.0**-5
    nu = _four_measures(h)["atoms"]
    assert nu.kappa(1.0) == math.inf
    m = make_model("linear_delay", measure=nu)

    def no_paths(*args, **kwargs):
        raise AssertionError("simulate was called")

    monkeypatch.setattr(bihari, "simulate", no_paths)
    with pytest.raises(ValueError, match="kappa"):
        apriori_check(m, nu, constant_segment(nu, 1.0), SolverConfig(h=h, t_end=1.0), 1.0, 50, 0)


def _step_mismatch_runs():
    """Each runner on an exponential measure built for h = 2^-6 but stepped
    with h = 2^-7 from a segment of 2^7 + 1 nodes (r0 = 1)."""
    from delaysde.coupling import CouplingConfig, run_coupling_batch
    from delaysde.girsanov import log_density, terminal_f
    from delaysde.harnack import check_log_harnack
    from delaysde.zvonkin import simulate_transformed, transformed_model

    coarse = make_measure("exponential", 1.0, 2.0**-6, lam=1.0)
    fine = make_measure("exponential", 1.0, 2.0**-7, lam=1.0)
    m = make_model("linear_delay", measure=coarse)
    cfg = SolverConfig(h=2.0**-7, t_end=0.25)
    xi = constant_segment(fine, 1.0)
    batch = simulate(m, fine, xi, cfg, 5, 4)  # the matching grid
    tm = transformed_model(m, coarse, None)
    eta = xi.values + 0.05
    f = lambda seg: 1.0 + seg[:, -1, 0] ** 2  # noqa: E731
    return {
        "simulate": lambda: simulate(m, coarse, xi, cfg, 5, 4),
        "apriori_check": lambda: apriori_check(m, coarse, xi, cfg, 0.25, 4, 5),
        "log_density": lambda: log_density(m, coarse, batch, cfg),
        "terminal_f": lambda: terminal_f(m, coarse, f, xi.values, cfg, 5, 4),
        "simulate_transformed": lambda: simulate_transformed(tm, coarse, xi.values, cfg, 5, 4),
        "run_coupling_batch": lambda: run_coupling_batch(
            tm, coarse, xi.values, eta, CouplingConfig(T=0.25, h=2.0**-7, K=6.0), 5, 4
        ),
        "check_log_harnack": lambda: check_log_harnack(
            tm, coarse, f, xi.values, eta, 0.25, 2.0**-7, 6.0, 4, 5
        ),
    }


@pytest.mark.parametrize("runner", sorted(_step_mismatch_runs()))
def test_runner_step_must_match_the_measure(runner):
    """A measure's cell masses belong to its own grid: a runner stepping with
    another h is a GridMismatchError, not a run with the wrong masses."""
    with pytest.raises(GridMismatchError, match="differs from the measure's step"):
        _step_mismatch_runs()[runner]()


def _segment_runs():
    """Each runner on a d = 2 model from a segment with one component."""
    from delaysde.coupling import CouplingConfig, run_coupling_batch
    from delaysde.zvonkin import simulate_transformed, transformed_model

    nu = make_measure("exponential", 0.25, 2.0**-4, lam=1.0)
    m = make_model("linear_delay", measure=nu, d=2)
    cfg = SolverConfig(h=2.0**-4, t_end=0.125)
    xi = constant_segment(nu, 1.0)
    tm = transformed_model(m, nu, None)
    return {
        "simulate": lambda: simulate(m, nu, xi, cfg, 5, 3),
        "simulate_transformed": lambda: simulate_transformed(tm, nu, xi.values, cfg, 5, 3),
        "run_coupling_batch": lambda: run_coupling_batch(
            tm, nu, xi.values, xi.values + 0.1, CouplingConfig(T=0.125, h=2.0**-4, K=2.0), 5, 3
        ),
    }


@pytest.mark.parametrize("runner", sorted(_segment_runs()))
def test_runner_refuses_a_segment_of_another_dimension(runner):
    """A (n0+1, 1) segment would broadcast into a d = 2 model's states."""
    with pytest.raises(ValueError, match="initial segment shape"):
        _segment_runs()[runner]()


def test_simulate_transformed_refuses_truncation():
    """simulate_transformed has no truncation, so a finite level would be ignored."""
    from delaysde.zvonkin import simulate_transformed, transformed_model

    nu = make_measure("exponential", 0.25, 2.0**-4, lam=1.0)
    tm = transformed_model(make_model("linear_delay", measure=nu), nu, None)
    xi = constant_segment(nu, 1.0).values
    cfg = SolverConfig(h=2.0**-4, t_end=0.125, trunc_level=1e-3)
    with pytest.raises(ValueError, match="trunc_level"):
        simulate_transformed(tm, nu, xi, cfg, 5, 3)


def test_measure_n0_is_its_cell_count():
    nu = make_measure("uniform", 0.5, 2.0**-5)
    assert nu.n0(2.0**-5) == nu.n_cells == 16
    with pytest.raises(GridMismatchError):
        nu.n0(2.0**-6)
