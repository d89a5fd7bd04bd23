import math
import tracemalloc

import numpy as np
import pytest

from delaysde.coupling import (
    CouplingConfig,
    entropy_cost,
    fit_entropy_cost,
    gamma,
    run_coupling_batch,
)
from delaysde.measure import constant_segment, make_measure
from delaysde.model import make_model
from delaysde.rng import normal_increments
from delaysde.zvonkin import solve_u, transformed_model

H = 2.0**-8


def gamma_prime(t, T: float, K: float):
    """d/dt of the bridging clock; satisfies 2 + gamma' - K^2 gamma = 1."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > T + 1e-12):
        raise ValueError("gamma is defined on [0, T]")
    out = -np.exp((t - T) * K**2) if K != 0.0 else -np.ones_like(t)
    return float(out) if out.ndim == 0 else out


@pytest.fixture(scope="module")
def nu():
    return make_measure("exponential", 1.0, H, lam=1.0)


@pytest.fixture(scope="module")
def tm(nu):
    return transformed_model(make_model("linear_delay", measure=nu), nu, None)


def test_gamma_values():
    assert gamma(0.0, 1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0))
    assert gamma(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert gamma(0.5, 1.0, 2.0) == pytest.approx((1.0 - math.exp(-2.0)) / 4.0)
    # K = 0 degenerates to the linear bridge clock
    assert gamma(0.25, 1.0, 0.0) == pytest.approx(0.75)
    assert gamma_prime(0.25, 1.0, 0.0) == -1.0


def test_gamma_differential_identity():
    """2 + gamma' - K^2 gamma = 1 on [0, T], the relation the bridging drift
    needs so the quadratic terms in the meeting estimate collapse."""
    T, K = 1.0, 3.0
    t = np.linspace(0.0, T, 101)
    lhs = 2.0 + gamma_prime(t, T, K) - K**2 * gamma(t, T, K)
    np.testing.assert_allclose(lhs, 1.0, atol=1e-12)


def test_gamma_prime_is_derivative():
    T, K = 1.0, 2.0
    t = np.linspace(0.05, 0.95, 19)
    eps = 1e-6
    fd = (gamma(t + eps, T, K) - gamma(t - eps, T, K)) / (2 * eps)
    np.testing.assert_allclose(fd, gamma_prime(t, T, K), atol=1e-8)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma(-0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_prime(1.5, 1.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        CouplingConfig(T=0.0, h=0.1, K=1.0)
    with pytest.raises(ValueError):
        CouplingConfig(T=1.0, h=0.1, K=-1.0)
    with pytest.raises(Exception):
        CouplingConfig(T=1.0, h=0.3, K=1.0)
    CouplingConfig(T=1.0, h=0.125, K=3.9)  # h K^2 = 1.90
    with pytest.raises(ValueError, match=r"h\*K\^2 = 2 "):
        CouplingConfig(T=1.0, h=0.125, K=4.0)  # bridge factor 1 - h/ghat reaches -1
    # a NaN fails every comparison, the h K^2 < 2 bound included
    for field in ("T", "h", "K"):
        with pytest.raises(ValueError, match=r"need T > 0, h > 0, K >= 0"):
            CouplingConfig(**{"T": 0.5, "h": 2.0**-7, "K": 2.0, field: math.nan})


def test_coupling_stores_paths_time_major(nu, tm):
    cc = CouplingConfig(T=0.125, h=H, K=2.0)
    xi = constant_segment(nu, 1.0).values
    res = run_coupling_batch(tm, nu, xi, xi + 0.1, cc, 4, 3)
    for states in (res.x_states, res.y_states):
        assert states.shape == (3, 2 * nu.n_cells + 33, 1)
        assert states.transpose(1, 0, 2).flags.c_contiguous


def test_coupled_runner_holds_two_paths_and_two_rings_of_pulled_back_rows():
    """One run_coupling_batch chunk keeps X, Y and the noise whole, and each
    side's pulled-back rows in a ring of n0 + 2: numpy reports its buffers
    to tracemalloc, and the peak stays within 1.25 x those bytes, below the
    four whole paths and the noise that storing the pull-backs would take."""
    h, n, T = 2.0**-6, 2048, 1.0
    nu = make_measure("exponential", 0.5, h, lam=1.0)
    m = make_model("reference", measure=nu)
    tm = transformed_model(m, nu, solve_u(m, 16.0, T + nu.r0, n_x=101, n_t=17))
    n0, n_T = nu.n_cells, round(T / h)
    n_rows, steps = 2 * n0 + n_T + 1, n0 + n_T
    bound = 1.25 * 8 * n * (2 * n_rows * m.d + 2 * (n0 + 2) * m.d + steps * m.dbar)
    assert 8 * n * (4 * n_rows * m.d + steps * m.dbar) > bound
    xi = np.full((n0 + 1, m.d), 0.5)
    tracemalloc.start()
    try:
        res = run_coupling_batch(tm, nu, xi, xi + 0.05, CouplingConfig(T, h, 6.0), 3, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.x_states.shape == (n, n_rows, m.d) and res.coupled.all()
    assert peak <= bound, (peak, bound)


def test_coupled_step_contraction_factor(nu):
    """Constant diffusion and shared drift: the one bridged step (T = h) is
    the last, so it closes X - Y exactly, and the ratio of the two Euler
    kernels it adds to log R is the Girsanov increment phi dW - h phi^2/2
    with gamma_hat = h, to 1 ulp, since the noise difference vanishes."""
    tm_ou = transformed_model(make_model("ou", lam=1.0, sigma=1.0), nu, None)
    cc = CouplingConfig(T=H, h=H, K=2.0)
    n0 = nu.n_cells
    xi = constant_segment(nu, 1.0).values
    eta = constant_segment(nu, 0.4).values
    dW = np.full((1, n0 + 1, 1), 0.37)
    res = run_coupling_batch(tm_ou, nu, xi, eta, cc, 0, 1, dW=dW)
    assert res.x_states[0, n0 + 1, 0] - res.y_states[0, n0 + 1, 0] == 0.0
    assert res.tau[0] == H
    # phi carries the delay mismatch plus the bridge term
    by_minus_bx = -1.0 * 0.4 - (-1.0 * 1.0)
    phi = by_minus_bx - 0.6 / H
    expected = phi * 0.37 - 0.5 * H * phi**2
    assert abs(res.log_R[0] - expected) <= np.spacing(abs(expected))


def test_coupled_step_after_horizon_is_free(nu, tm):
    """With T = h only step 0 is bridged: the steps on (T, T + r0] add nothing
    to log R, whatever their noise.  That step is the last, so log R is the
    Girsanov increment with gamma_hat = h, to 1 ulp."""
    cc = CouplingConfig(T=H, h=H, K=2.0)
    xi = constant_segment(nu, 1.0).values
    eta = constant_segment(nu, 0.4).values
    dW = normal_increments(0, 0, nu.n_cells + 1, 1, H)[None]
    res = run_coupling_batch(tm, nu, xi, eta, cc, 0, 1, dW=dW)
    # folded drift -a x + beta nu(x) with a = 1, beta = 1/2
    by_minus_bx = -(0.4 - 1.0) + 0.5 * nu.total_mass() * (0.4 - 1.0)
    phi = by_minus_bx - 0.6 / H
    expected = phi * dW[0, 0, 0] - 0.5 * H * phi**2
    assert expected == pytest.approx(-24.0822914728046, rel=1e-14)
    assert abs(res.log_R[0] - expected) <= np.spacing(abs(expected))


def test_ou_coupling_density_is_the_deterministic_bridge_sum():
    """OU with a constant sigma, no delay drift and K = 0: the gap X - Y is
    the same on every path, g_{k+1} = g_k (1 - h/ghat_k), so log R is
    sum_k phi_k dW_k - h/2 sum_k phi_k^2 with phi_k = g_k (lam - 1/ghat_k)/sigma,
    ghat_k = gamma(t_k + h/2) and ghat = h on the last step, which closes the
    gap exactly.  E_Q log R = (h/2) sum_k phi_k^2 then converges at first
    order to g0^2 ((lam T - 1)^3 + 1) / (6 lam T^2 sigma^2)."""
    lam, sigma, T, g0 = 1.0, 1.0, 0.5, 0.1
    exact = g0**2 * ((lam * T - 1.0) ** 3 + 1.0) / (6.0 * lam * T**2 * sigma**2)
    assert exact == pytest.approx(5.833e-3, rel=1e-3)
    errors = []
    for p in (5, 7, 9, 11):
        h = 2.0**-p
        nu_h = make_measure("uniform", 0.125, h)
        tm_ou = transformed_model(make_model("ou", lam=lam, sigma=sigma), nu_h, None)
        xi = constant_segment(nu_h, 1.0).values
        res = run_coupling_batch(tm_ou, nu_h, xi, xi - g0, CouplingConfig(T, h, 0.0), 23, 16)
        n0, n_T = nu_h.n_cells, round(T / h)
        t = h * np.arange(n_T)
        ghat = np.append(gamma(t[:-1] + 0.5 * h, T, 0.0), h)
        g = g0 * np.cumprod(np.append(1.0, 1.0 - h / ghat[:-1]))
        gaps = res.x_states[:, n0 : n0 + n_T + 1, 0] - res.y_states[:, n0 : n0 + n_T + 1, 0]
        np.testing.assert_allclose(gaps[:, :-1], np.broadcast_to(g, (16, n_T)), rtol=0, atol=1e-14)
        assert (gaps[:, -1] == 0.0).all() and (res.tau == T).all()
        phi = gaps[:, :-1] * (lam - 1.0 / ghat) / sigma
        log_r = np.sum(phi * res.dW[:, :n_T, 0], axis=1) - 0.5 * h * np.sum(phi**2, axis=1)
        np.testing.assert_allclose(res.log_R, log_r, rtol=1e-12)
        errors.append(0.5 * h * np.sum(phi[0] ** 2) - exact)
    assert errors[0] == pytest.approx(-1.08e-4, rel=0.01)
    assert errors[-1] == pytest.approx(-1.63e-6, rel=0.01)
    ratios = np.array(errors[:-1]) / np.array(errors[1:])  # h falls by 4 each time
    assert np.all((ratios > 3.5) & (ratios < 4.5)), ratios


def test_equal_starts_couple_immediately(nu, tm):
    xi = constant_segment(nu, 1.0).values
    cc = CouplingConfig(T=0.25, h=H, K=2.0)
    res = run_coupling_batch(tm, nu, xi, xi.copy(), cc, 3, 8)
    np.testing.assert_array_equal(res.tau, 0.0)
    np.testing.assert_array_equal(res.log_R, 0.0)
    np.testing.assert_array_equal(res.R, 1.0)
    assert res.terminal_segments_equal().all()
    np.testing.assert_array_equal(res.x_states, res.y_states)
    ent = entropy_cost(res.log_R)
    assert ent.value == 0.0
    assert ent.mean_R == 1.0


def test_coupling_succeeds_and_is_absorbing(nu, tm):
    xi = constant_segment(nu, 1.0).values
    c = 0.1 / math.sqrt(nu.total_mass() + 1.0)
    eta = xi + c
    cc = CouplingConfig(T=0.5, h=H, K=6.0)
    res = run_coupling_batch(tm, nu, xi, eta, cc, 17, 128)
    assert not res.failed.any()
    assert res.coupled.all()
    assert res.terminal_segments_equal().all()
    assert np.nanmax(res.tau) <= 0.5
    n0 = nu.n_cells
    for i in (0, 64, 127):
        k = n0 + int(round(res.tau[i] / H))
        np.testing.assert_array_equal(res.x_states[i, k:], res.y_states[i, k:])
    ent = entropy_cost(res.log_R)
    assert abs(ent.mean_R - 1.0) <= 3.5 * ent.stderr_R
    assert ent.ess > 0.5 * 128
    assert not ent.warnings


def test_run_coupling_single_pair_matches_batch(nu, tm):
    xi = constant_segment(nu, 1.0).values
    eta = xi + 0.05
    cc = CouplingConfig(T=0.25, h=H, K=6.0)
    batch = run_coupling_batch(tm, nu, xi, eta, cc, 9, 3, path_offset=1)
    single = run_coupling_batch(tm, nu, xi, eta, cc, 9, 1, path_offset=2)
    np.testing.assert_array_equal(single.x_states[0], batch.x_states[1])
    np.testing.assert_array_equal(single.y_states[0], batch.y_states[1])
    np.testing.assert_array_equal(single.log_R[0], batch.log_R[1])


def test_delta_scales_with_initial_gap(nu, tm):
    xi = constant_segment(nu, 1.0).values
    cc = CouplingConfig(T=0.25, h=H, K=2.0)
    near = run_coupling_batch(tm, nu, xi, xi + 0.01, cc, 0, 1)
    far = run_coupling_batch(tm, nu, xi, xi + 1.0, cc, 0, 1)
    assert near.delta < far.delta
    assert near.delta == pytest.approx(1e-8 * 1.01)
    # a gap whose norm squares to inf would make every pair meet at t = 0
    with pytest.raises(ValueError, match="need a finite norm"):
        run_coupling_batch(tm, nu, xi, xi + 1e300, cc, 0, 1)


def test_fit_entropy_cost_recovers_exact_plane():
    f1 = np.array([1.0, 2.0, 0.5, 4.0, 1.5])
    f2 = np.array([0.3, 0.1, 0.7, 0.2, 0.9])
    vals = 2.5 * f1 + 0.8 * f2
    fit = fit_entropy_cost(f1, f2, vals)
    assert fit.c1 == pytest.approx(2.5, rel=1e-10)
    assert fit.c2 == pytest.approx(0.8, rel=1e-10)
    assert fit.rel_residual < 1e-10


# Linear-Gaussian anchors in the CLI `couple` geometry: linear_delay (b = 0,
# B = beta nu(.), Q = sigma) with the identity transform, so each scheme is a
# linear Gaussian recursion whose moments are known exactly.
ANCHOR_H = 2.0**-7
ANCHOR_T = 0.5
ANCHOR_K = 6.0
ANCHOR_PAIRS = 40960
ANCHOR_CHUNK = 4096
ANCHOR_SEED = 2015
ANCHOR_GEOMETRIES = [(0.3, 0.0), (0.0, 0.3)]  # (distance0, distance_seg)
ANCHOR_IDS = ["distance0", "distance_seg"]


def _euler_moments(nu, m, seg0, steps):
    """Mean and noise loadings of every node of the Euler recursion
    x_{i+1} = x_i + h (-a x_i + beta sum_j w_j x_{i-n0+j}) + sigma dW_i
    from the segment seg0: node i is mean[i] + G[i] @ dW with Var dW_k = h."""
    n0, h = nu.n_cells, nu.h
    a, beta, sigma = m.params["lam"], m.params["beta"], m.params["sigma"]
    mean = np.zeros(n0 + steps + 1)
    G = np.zeros((n0 + steps + 1, steps))
    mean[: n0 + 1] = seg0
    for k in range(steps):
        i = n0 + k
        mean[i + 1] = mean[i] + h * (-a * mean[i] + beta * (nu.weights @ mean[k:i]))
        G[i + 1] = G[i] + h * (-a * G[i] + beta * (nu.weights @ G[k:i]))
        G[i + 1, k] += sigma
    return mean, G


@pytest.fixture(scope="module")
def anchor_runs():
    """Per geometry: the exact node means from xi and from eta, the terminal
    segment covariance, and the log_R and X at T, T + r0/2 and T + r0 of
    ANCHOR_PAIRS coupled pairs."""
    nu = make_measure("exponential", 1.0, ANCHOR_H, lam=1.0)
    m = make_model("linear_delay", measure=nu)
    tm = transformed_model(m, nu, None)
    cc = CouplingConfig(T=ANCHOR_T, h=ANCHOR_H, K=ANCHOR_K)
    n0 = nu.n_cells
    steps = round(ANCHOR_T / ANCHOR_H) + n0
    last = n0 + steps
    nodes = [last - n0, last - n0 // 2, last]  # T, T + r0/2, T + r0
    xi = constant_segment(nu, 1.0).values
    runs = {}
    for d0, dseg in ANCHOR_GEOMETRIES:
        eta = xi + dseg
        eta[-1] += d0
        mean_xi, G = _euler_moments(nu, m, xi[:, 0], steps)
        mean_eta, _ = _euler_moments(nu, m, eta[:, 0], steps)
        log_r, x_nodes = [], []
        for start in range(0, ANCHOR_PAIRS, ANCHOR_CHUNK):
            res = run_coupling_batch(tm, nu, xi, eta, cc, ANCHOR_SEED, ANCHOR_CHUNK, start)
            assert res.coupled.all() and res.terminal_segments_equal().all()
            log_r.append(res.log_R)
            x_nodes.append(res.x_states[:, nodes, 0])
        term = G[-n0 - 1 :]
        runs[(d0, dseg)] = {
            "nodes": nodes, "mean_xi": mean_xi[nodes], "mean_eta": mean_eta[nodes],
            "dm": (mean_eta - mean_xi)[-n0 - 1 :], "cov": ANCHOR_H * term @ term.T,
            "log_R": np.concatenate(log_r), "x": np.concatenate(x_nodes),
        }
    return runs


@pytest.mark.parametrize("geometry", ANCHOR_GEOMETRIES, ids=ANCHOR_IDS)
def test_coupling_density_moves_the_law_to_eta(anchor_runs, geometry):
    """E_P[R X] at T, T + r0/2 and T + r0 is the exact Euler mean from eta
    (3 sigma), and the mean from xi lies more than 5 standard errors away, so
    a density that does nothing fails."""
    run = anchor_runs[geometry]
    rx = np.exp(run["log_R"])[:, None] * run["x"]
    est = rx.mean(axis=0)
    se = rx.std(axis=0, ddof=1) / math.sqrt(len(rx))
    z_eta = (est - run["mean_eta"]) / se
    z_xi = (est - run["mean_xi"]) / se
    print(f"{geometry}: z to eta {np.round(z_eta, 2)}, z to xi {np.round(z_xi, 1)}")
    assert np.all(np.abs(z_eta) <= 3.0)
    assert np.all(np.abs(z_xi) > 5.0)


@pytest.mark.parametrize("geometry", ANCHOR_GEOMETRIES, ids=ANCHOR_IDS)
def test_entropy_cost_bounds_the_terminal_kl(anchor_runs, geometry):
    """E_Q log R >= KL(law from eta || law from xi) of the terminal segment,
    KL = dm^T Sigma^-1 dm / 2: the two laws differ in mean only, and no
    density can cost less than their relative entropy."""
    run = anchor_runs[geometry]
    dm = run["dm"]
    kl = 0.5 * dm @ np.linalg.solve(run["cov"], dm)
    ent = entropy_cost(run["log_R"])
    print(f"{geometry}: E_Q log R {ent.value:.4f} +- {ent.stderr:.4f}, KL {kl:.5f}, "
          f"ratio {ent.value / kl:.1f}")
    assert kl > 0
    assert ent.value >= kl - 3.0 * ent.stderr
