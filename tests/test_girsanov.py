import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from delaysde import girsanov, rng
from delaysde.girsanov import (
    SingularDiffusionError,
    direct_estimate,
    log_density,
    solve_qqt,
    weak_estimate,
)
from delaysde.bihari import apriori_check
from delaysde.harnack import check_gradient_estimate, check_log_harnack
from delaysde.measure import batch_seg_norm, constant_segment, make_measure
from delaysde.model import make_functional, make_model, semigroup_factors
from delaysde.solver import ExplosionBeforeHorizonError, SolverConfig, _shift, simulate
from delaysde.zvonkin import transformed_model

H7 = 2.0**-7


@pytest.fixture(scope="module")
def nu7():
    return make_measure("exponential", 1.0, H7, lam=1.0)


def test_solve_qqt_scalar():
    Q = np.array([[[2.0]], [[0.5]]])
    rhs = np.array([[4.0], [4.0]])
    # Q*(QQ*)^{-1} rhs = rhs / q in one dimension
    np.testing.assert_allclose(solve_qqt(Q, rhs), [[2.0], [8.0]])


def test_solve_qqt_matches_dense_inverse():
    rng = np.random.default_rng(0)
    Q = rng.normal(size=(5, 2, 3)) + np.concatenate([np.eye(2), np.zeros((2, 1))], axis=1)
    rhs = rng.normal(size=(5, 2))
    got = solve_qqt(Q, rhs)
    for i in range(5):
        QQt = Q[i] @ Q[i].T
        want = Q[i].T @ np.linalg.solve(QQt, rhs[i])
        np.testing.assert_allclose(got[i], want, rtol=1e-9)


def test_solve_qqt_singular():
    with pytest.raises(SingularDiffusionError):
        solve_qqt(np.zeros((1, 1, 1)), np.ones((1, 1)))
    Q = np.zeros((1, 2, 2))
    Q[0, 0, 0] = 1.0  # rank deficient
    with pytest.raises(SingularDiffusionError):
        solve_qqt(Q, np.ones((1, 2)))


def girsanov_shift(m, nu, t, seg):
    """psi(t) = Q*(QQ*)^{-1}{b(t, xi(0)) + B(t, xi_t)} for a batch of segments."""
    seg = np.asarray(seg, dtype=float)
    if seg.ndim == 2:
        seg = seg[None]
    return _shift(m, t, seg[:, -1], nu.average(seg))


def test_girsanov_shift_reference_formula():
    nu = make_measure("exponential", 1.0, 0.25, lam=1.0)
    m = make_model("reference", measure=nu, beta=0.5, sigma=1.0)
    seg = np.full((2, nu.n_cells + 1, 1), 0.25)
    psi = girsanov_shift(m, nu, 0.0, seg)
    # sigma = 1: psi = b + B = sqrt(0.25) + 0.5 nu(0.25)
    want = 0.5 + 0.5 * 0.25 * nu.total_mass()
    np.testing.assert_allclose(psi, want, rtol=1e-12)


def test_log_density_zero_for_driftless_model():
    nu = make_measure("uniform", 0.5, 0.125)
    m = make_model("ou")
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=0.125, t_end=0.5)
    batch = simulate(m, nu, xi, cfg, 0, 8)
    np.testing.assert_array_equal(log_density(m, nu, batch, cfg), 0.0)


@pytest.mark.parametrize("offset", [255, 256, 511])
def test_log_density_is_batch_member(offset):
    """log R of a single path and of batches of 3 and 300 equals that of the
    same paths in a wider batch, bit for bit, across tile edges."""
    nu = make_measure("exponential", 0.5, 2.0**-6, lam=1.0)
    m = make_model("reference", measure=nu)
    ref = make_model("ou")
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=2.0**-6, t_end=1.0)
    wide = log_density(m, nu, simulate(ref, nu, xi, cfg, 2, 600, path_offset=250), cfg)
    for count in (1, 3, 300):
        sub = log_density(m, nu, simulate(ref, nu, xi, cfg, 2, count, path_offset=offset), cfg)
        np.testing.assert_array_equal(sub, wide[offset - 250 : offset - 250 + count])


@pytest.mark.parametrize("path_model", ["ou", "linear_delay"])
@pytest.mark.parametrize("kind", ["exponential", "uniform", "atoms", "exponential-2"])
def test_log_r_formed_in_the_step_equals_log_density(kind, path_model):
    """simulate with log_r_model=m, on a ring of n0 + 2 rows, gives log R
    with the bits of log_density over the stored batch of the same paths,
    for sliding (exponential, uniform) and blocked (atoms, exponential with
    lam = -2) averages, at path offsets off the PATH_TILE grid.  The ou
    path's own B is zero, so its averages are formed for log R alone."""
    h = 2.0**-5
    w = np.zeros(32)
    w[[2, 9, 20, 31]] = [0.1, 0.3, 0.2, 0.4]
    nu = {
        "exponential": make_measure("exponential", 1.0, h, lam=1.0),
        "uniform": make_measure("uniform", 1.0, h),
        "atoms": make_measure("atoms", 1.0, h, weights=w),
        "exponential-2": make_measure("exponential", 1.0, h, lam=-2.0),
    }[kind]
    m = make_model("reference", measure=nu)
    z = make_model(path_model, measure=nu)
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=h, t_end=1.5)
    for offset, count in ((37, 300), (300, 1), (511, 260)):
        stored = simulate(z, nu, xi, cfg, 2, count, path_offset=offset)
        ring = simulate(z, nu, xi, cfg, 2, count, path_offset=offset, keep_path=False, log_r_model=m)
        assert ring.states.shape == (count, nu.n_cells + 2, 1)
        np.testing.assert_array_equal(ring.log_r, log_density(m, nu, stored, cfg))
        np.testing.assert_array_equal(ring.states, stored.states[:, -nu.n_cells - 2 :])
        assert stored.log_r is None


def test_log_density_refuses_a_ring_batch(nu7):
    m = make_model("reference", measure=nu7)
    cfg = SolverConfig(h=H7, t_end=1.0)
    ring = simulate(make_model("ou"), nu7, constant_segment(nu7, 1.0), cfg, 0, 2, keep_path=False)
    with pytest.raises(ValueError, match="keep_path"):
        log_density(m, nu7, ring, cfg)


def test_estimators_hold_the_noise_and_a_ring_of_rows(monkeypatch):
    """weak_estimate and direct_estimate keep n0 + 2 rows per path next to
    the noise: numpy reports its buffers to tracemalloc, and the peak stays
    within 1.25 x (dW bytes + ring bytes), below the dW + n0 + steps + 1
    rows that storing every row would take."""
    h, n = 2.0**-6, 2048
    nu = make_measure("exponential", 1.0, h, lam=1.0)
    m = make_model("reference", measure=nu)
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=h, t_end=1.0)
    f, _ = make_functional("tanh0")
    n0, steps = nu.n_cells, 64
    assert n <= rng.ESTIMATOR_CHUNK  # one batch
    bound = 1.25 * 8 * n * (steps * m.dbar + (n0 + 2) * m.d)
    assert 8 * n * (steps * m.dbar + (n0 + steps + 1) * m.d) > bound
    shapes = []

    def recorded(*args, **kwargs):
        batch = simulate(*args, **kwargs)
        shapes.append(batch.states.shape)
        return batch

    monkeypatch.setattr(girsanov, "simulate", recorded)
    for estimate in (weak_estimate, direct_estimate):
        tracemalloc.start()
        try:
            estimate(m, nu, xi, f, 1.0, cfg, 5, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (estimate.__name__, peak, bound)
    assert shapes == [(n, n0 + 2, m.d)] * 2


def test_weak_estimate_equals_direct_for_driftless_model():
    """b = B = 0 makes R = 1 and the reference process the process itself."""
    nu = make_measure("uniform", 0.5, 0.125)
    m = make_model("ou")
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=0.125, t_end=0.5)
    f, _ = make_functional("tanh0")
    west = weak_estimate(m, nu, xi, f, 0.5, cfg, 3, 64)
    direct, _ = direct_estimate(m, nu, xi, f, 0.5, cfg, 3, 64)
    assert west.mean_R == 1.0
    assert west.stderr_R == 0.0
    assert west.ess == pytest.approx(64.0)
    assert west.unnormalized == pytest.approx(direct, abs=1e-15)
    assert west.self_normalized == pytest.approx(direct, abs=1e-15)


def test_weak_estimate_cross_validates_reference_model():
    nu = make_measure("exponential", 1.0, 2.0**-6, lam=1.0)
    m = make_model("reference", measure=nu)
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=2.0**-6, t_end=0.5)
    f, _ = make_functional("tanh0")
    n = 4000
    direct, d_se = direct_estimate(m, nu, xi, f, 0.5, cfg, 21, n)
    west = weak_estimate(m, nu, xi, f, 0.5, cfg, 22, n)
    comb = math.sqrt(d_se**2 + west.stderr**2)
    assert abs(direct - west.unnormalized) <= 3.5 * comb
    assert abs(west.mean_R - 1.0) <= 3.5 * west.stderr_R
    assert west.ess > 0.01 * n
    assert not west.warnings


def _hex(value):
    """value with every float spelled out by float.hex, so equal means equal bits."""
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return _hex(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("estimator", [
    "direct_estimate", "weak_estimate", "check_gradient_estimate", "check_log_harnack",
    "apriori_check",
])
def test_estimates_do_not_depend_on_the_chunk(estimator, monkeypatch):
    """50 paths in chunks of 7, on 1 or 2 workers, give every field of one
    chunk of 50, bit for bit."""
    nu = make_measure("uniform", 0.5, 0.125)
    m = make_model("linear_delay", measure=nu)
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=0.125, t_end=0.5)
    f, _ = make_functional("coord0_sq")
    direction = np.zeros_like(xi.values)
    direction[-1] = 1.0
    direction /= batch_seg_norm(nu, direction[None])[0]
    tm = transformed_model(m, nu, None)
    f_pos, _ = make_functional("tanh0_pos", nu)
    runs = {
        "direct_estimate": lambda w: direct_estimate(m, nu, xi, f, 0.5, cfg, 1, 50, w),
        "weak_estimate": lambda w: asdict(weak_estimate(m, nu, xi, f, 0.5, cfg, 1, 50, w)),
        "check_gradient_estimate": lambda w: asdict(check_gradient_estimate(
            m, nu, f, xi.values, direction, 0.5, 0.125, 0.01, 50, 1, C_hat=1.0, workers=w)),
        "check_log_harnack": lambda w: asdict(check_log_harnack(
            tm, nu, f_pos, xi.values, xi.values + 0.1, 0.5, 0.125, 2.0, 50, 1, C_fitted=1.0,
            workers=w)),
        "apriori_check": lambda w: asdict(apriori_check(m, nu, xi, cfg, 0.5, 50, 1, w)),
    }

    def run(chunk, workers):
        monkeypatch.setattr(rng, "ESTIMATOR_CHUNK", chunk)
        monkeypatch.setattr(rng, "STORED_ROW_CHUNK", chunk)
        return _hex(runs[estimator](workers))

    whole = run(50, 1)
    for workers in (1, 2):
        assert run(7, workers) == whole


def test_weak_estimate_refuses_paths_dying_before_the_horizon():
    """A truncated Z run whose paths end before T is refused, as by
    direct_estimate, instead of averaging the frozen paths."""
    h = 2.0**-4
    nu = make_measure("exponential", 0.5, h, lam=1.0)
    m = make_model("reference", measure=nu)
    xi = constant_segment(nu, 0.7)
    cfg = SolverConfig(h=h, t_end=1.0, trunc_level=0.8)
    f, _ = make_functional("tanh0")
    for estimate in (direct_estimate, weak_estimate):
        with pytest.raises(ExplosionBeforeHorizonError) as exc:
            estimate(m, nu, xi, f, 1.0, cfg, 3, 200)
        assert exc.value.fraction > 0.5


def test_weak_estimate_needs_two_paths():
    nu = make_measure("uniform", 0.5, 0.125)
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=0.125, t_end=0.5)
    f, _ = make_functional("tanh0")
    for estimate in (direct_estimate, weak_estimate):
        with pytest.raises(ValueError, match="n_paths >= 2"):
            estimate(make_model("ou"), nu, xi, f, 0.5, cfg, 0, 1)


def test_horizon_must_match_config():
    nu = make_measure("uniform", 0.5, 0.125)
    m = make_model("ou")
    xi = constant_segment(nu, 1.0)
    cfg = SolverConfig(h=0.125, t_end=0.5)
    f, _ = make_functional("tanh0")
    with pytest.raises(ValueError):
        weak_estimate(m, nu, xi, f, 1.0, cfg, 0, 10)
    with pytest.raises(ValueError):
        direct_estimate(m, nu, xi, f, 1.0, cfg, 0, 10)


def test_direct_estimate_explosion_reported():
    """Exploded paths are frozen, so their terminal states are not averaged."""
    nu = make_measure("uniform", 0.5, 2.0**-7)
    f, _ = make_functional("coord0")
    cfg = SolverConfig(h=2.0**-7, t_end=0.5)
    with pytest.raises(ExplosionBeforeHorizonError) as exc:
        direct_estimate(make_model("cubic"), nu, constant_segment(nu, 3.0), f, 0.5, cfg, 0, 16)
    assert exc.value.fraction == 1.0


def test_direct_estimate_constant_functional(nu7):
    m = make_model("ou")
    f, _ = make_functional("const", c=2.5)
    cfg = SolverConfig(h=H7, t_end=0.5)
    value, stderr = direct_estimate(m, nu7, constant_segment(nu7, 1.0), f, 0.5, cfg, 0, 16)
    assert value == 2.5
    assert stderr == 0.0


def test_direct_estimate_ou_mean(nu7):
    m = make_model("ou", lam=1.0, sigma=1.0)
    f, _ = make_functional("coord0")
    cfg = SolverConfig(h=H7, t_end=1.0)
    value, stderr = direct_estimate(m, nu7, constant_segment(nu7, 1.0), f, 1.0, cfg, 11, 2000)
    assert abs(value - math.exp(-1.0)) <= 4.0 * stderr


def test_direct_estimate_explosion_fraction_reported(nu7):
    m = make_model("cubic")
    f, _ = make_functional("coord0")
    cfg = SolverConfig(h=H7, t_end=0.5)
    with pytest.raises(ExplosionBeforeHorizonError) as exc:
        direct_estimate(m, nu7, constant_segment(nu7, 3.0), f, 0.5, cfg, 0, 16)
    assert exc.value.fraction > 0.0


def test_direct_estimate_needs_samples(nu7):
    f, _ = make_functional("coord0")
    cfg = SolverConfig(h=H7, t_end=0.5)
    with pytest.raises(ValueError):
        direct_estimate(make_model("ou"), nu7, constant_segment(nu7, 1.0), f, 0.5, cfg, 0, 1)


def test_estimators_hit_the_exact_linear_gaussian_mean():
    """linear_delay (b = 0, B = beta nu(xi), Q = sigma I) in the benchmark's
    reweight set-up: the exponential-Euler mean follows the deterministic
    recursion m_{k+1} = E m_k + J beta nu(m window), written here with
    nu.weights.  Both estimators of the terminal coordinate must hit it
    within 3 standard errors, while the reference law's mean e^-1, which a
    density that restores no drift would return, lies more than 5 away."""
    h = 2.0**-8
    nu = make_measure("exponential", 1.0, h, lam=1.0)
    m = make_model("linear_delay", measure=nu)
    n0, steps = nu.n_cells, 256
    E, J = semigroup_factors(m.A, h)
    mean = np.ones(n0 + steps + 1)
    for k in range(steps):
        mean[n0 + k + 1] = E[0] * mean[n0 + k] + J[0] * m.params["beta"] * (nu.weights @ mean[k : k + n0])
    exact = mean[-1]
    assert abs(exact - 0.53984) < 1e-5
    f, _ = make_functional("coord0")
    args = (m, nu, constant_segment(nu, 1.0), f, 1.0, SolverConfig(h=h, t_end=1.0))
    direct, direct_se = direct_estimate(*args, 7001, 8192)
    weak = weak_estimate(*args, 7002, 8192)
    for value, se in ((direct, direct_se), (weak.unnormalized, weak.stderr)):
        assert abs(value - exact) <= 3.0 * se
        assert abs(value - math.exp(-1.0)) > 5.0 * se
