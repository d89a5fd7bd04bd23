"""A diffusion declared constant (dQ = 0) is read once per step and, in
d = dbar = 1, kept in scalar form.  Oracle: the same model with dQ dropped
from Q_bounds, which the runners treat as state-dependent and step through
the per-row (n, d, dbar) path."""

import dataclasses

import numpy as np
import pytest

from delaysde.bihari import apriori_check
from delaysde.coupling import CouplingConfig, run_coupling_batch
from delaysde.girsanov import SingularDiffusionError, log_density, solve_qqt, weak_estimate
from delaysde.measure import constant_segment, make_measure
from delaysde.model import diffusion_at, make_functional, make_model, noise_product
from delaysde.solver import SolverConfig, simulate
from delaysde.zvonkin import (
    TransformedModel,
    simulate_transformed,
    solve_u,
    transformed_coefficients,
    transformed_model,
)


def _general(m):
    """m with dQ dropped from Q_bounds: the same Q, read row by row."""
    return dataclasses.replace(m, Q_bounds={k: v for k, v in m.Q_bounds.items() if k != "dQ"})


@pytest.fixture(scope="module")
def nu6():
    return make_measure("exponential", 1.0, 2.0**-6, lam=1.0)


@pytest.fixture(scope="module")
def sol_d1(nu6):
    return solve_u(make_model("reference", measure=nu6), 16.0, 1.0, n_x=201, n_t=33)


@pytest.fixture(scope="module")
def sol_d2(nu6):
    return solve_u(make_model("reference", measure=nu6, d=2), 16.0, 1.0, n_x=13, n_t=5, quad_order=6)


def _runner_outputs(m, nu, sol, n=300):
    """Every output of the changed runners for model m (plain) and its
    transform by sol (None: the identity), n paths from fixed seeds."""
    h = nu.h
    cfg = SolverConfig(h=h, t_end=0.5)
    xi = constant_segment(nu, np.linspace(0.5, 1.0, m.d))
    batch = simulate(m, nu, xi, cfg, 11, n)
    out = {
        "simulate.states": batch.states,
        "simulate.lifetimes": batch.lifetimes,
        "log_density": log_density(m, nu, batch, cfg),
    }
    if m.bihari is not None:
        rep = apriori_check(m, nu, xi, cfg, 0.5, n, 11)
        out["apriori.sup_sq"] = rep.sup_sq
    tm = transformed_model(m, nu, sol)
    xi_t = tm.seg_to_transformed(0.0, xi.values[None], h)[0]
    out["simulate_transformed.states"] = simulate_transformed(tm, nu, xi_t, cfg, 12, n)[0]
    res = run_coupling_batch(tm, nu, xi_t, xi_t + 0.3, CouplingConfig(T=0.25, h=h, K=6.0), 13, n)
    for name in ("x_states", "y_states", "log_R", "tau"):
        out[f"coupling.{name}"] = getattr(res, name)
    return out


def test_constant_path_keeps_the_bits_in_d1(nu6, sol_d1):
    m = make_model("reference", measure=nu6)
    got = _runner_outputs(m, nu6, sol_d1)
    want = _runner_outputs(_general(m), nu6, sol_d1)
    assert got.keys() == want.keys()
    for name in got:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_constant_path_keeps_the_bits_of_the_identity_transform(nu6):
    m = make_model("linear_delay", measure=nu6)
    got = _runner_outputs(m, nu6, None)
    want = _runner_outputs(_general(m), nu6, None)
    for name in got:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


@pytest.mark.parametrize("name", ["reference", "linear_delay"])
def test_d2_keeps_the_per_row_path(nu6, sol_d2, name):
    """In d = 2 a declared constant Q is still read row by row, so the
    declaration moves no bit."""
    m = make_model(name, measure=nu6, d=2, sigma=0.8)
    sol = sol_d2 if name == "reference" else None
    got = _runner_outputs(m, nu6, sol, n=40)
    want = _runner_outputs(_general(m), nu6, sol, n=40)
    for key in got:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_weak_estimate_keeps_the_bits(nu6):
    m = make_model("reference", measure=nu6)
    cfg = SolverConfig(h=nu6.h, t_end=0.5)
    f, _ = make_functional("tanh0")
    args = (nu6, constant_segment(nu6, 1.0), f, 0.5, cfg, 21, 500)
    assert weak_estimate(m, *args) == weak_estimate(_general(m), *args)


@pytest.mark.parametrize("general", [False, True])
def test_zero_sigma_is_singular_on_both_paths(nu6, general):
    m = make_model("reference", measure=nu6, sigma=0.0)
    identity = make_model("linear_delay", measure=nu6, sigma=0.0)
    if general:
        m, identity = _general(m), _general(identity)
    cfg = SolverConfig(h=nu6.h, t_end=0.25)
    xi = constant_segment(nu6, 1.0)
    batch = simulate(m, nu6, xi, cfg, 1, 8)
    with pytest.raises(SingularDiffusionError):
        log_density(m, nu6, batch, cfg)
    tm = transformed_model(identity, nu6, None)
    with pytest.raises(SingularDiffusionError):
        run_coupling_batch(tm, nu6, xi.values, xi.values + 0.1, CouplingConfig(0.25, nu6.h, 4.0), 1, 8)


@pytest.mark.parametrize("general", [False, True])
def test_transformed_floor_is_the_per_row_floor(nu6, sol_d1, general):
    """(1 + u') sigma with 1 + u' near 0: both paths raise exactly when the
    per-row QQ* = ((1 + u') sigma)^2 is below the floor 1e-12."""
    base = make_model("reference", measure=nu6, sigma=1.0)
    tm = TransformedModel(_general(base) if general else base, sol_d1)
    one_plus = np.array([1e-6, 2e-6, 0.9e-6, 1e-7, 1.5])
    ud = np.stack([np.zeros_like(one_plus), one_plus - 1.0])
    x = np.zeros((len(one_plus), 1))
    Q = transformed_coefficients(tm, 0.0, x, x, ud, None)[1]
    assert Q.ndim == (3 if general else 1)
    q = (1.0 + ud[1]) * 1.0
    for i in range(len(q)):
        rows = Q[i : i + 1]
        if q[i] * q[i] < 1e-12:
            with pytest.raises(SingularDiffusionError):
                solve_qqt(rows, np.ones((1, 1)))
        else:
            assert solve_qqt(rows, np.ones((1, 1)))[0, 0] == q[i] * (1.0 / (q[i] * q[i]))


def test_helper_forms_agree():
    """noise_product and solve_qqt give the per-row (n, 1, 1) results from
    the scalar form."""
    rng = np.random.default_rng(4)
    dW = rng.normal(size=(6, 1))
    v = rng.normal(size=(6, 1))
    q = np.array([0.7])
    per_row = np.full((6, 1, 1), 0.7)
    np.testing.assert_array_equal(noise_product(q, dW), noise_product(per_row, dW))
    np.testing.assert_array_equal(solve_qqt(q, v), solve_qqt(per_row, v))


def test_diffusion_at_reads_one_row_when_declared_constant(nu6):
    """In d = 1 a declared constant Q is read at one row; without the
    declaration, or in d = 2, at every row."""
    seen = []

    def counting(m):
        def Q(t, x):
            seen.append(x.shape)
            return m.Q(t, x)

        return dataclasses.replace(m, Q=Q)

    m1 = make_model("reference", measure=nu6)
    m2 = make_model("reference", measure=nu6, d=2)
    assert diffusion_at(counting(m1), 0.0, np.ones((50, 1))).shape == (1,)
    assert diffusion_at(_general(counting(m1)), 0.0, np.ones((50, 1))).shape == (50, 1, 1)
    assert diffusion_at(counting(m2), 0.0, np.ones((50, 2))).shape == (50, 2, 2)
    assert seen == [(1, 1), (50, 1), (50, 2)]
